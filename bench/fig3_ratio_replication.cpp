// Reproduces Figure 3 (a,b,c): the ratio-replication tradeoff with m=210
// and alpha in {1.1, 1.5, 2.0}. For every feasible replication degree
// r = m/k (divisors of m) it prints four series:
//   - thm1 lower bound (no replication; flat line)
//   - LPT-NoChoice guarantee (r=1 endpoint)
//   - LS-Group(k=m/r) guarantee (the curve)
//   - LPT-NoRestriction guarantee (r=m endpoint; flat line)
//
// Usage: fig3_ratio_replication [--m=210] [--alphas=1.1,1.5,2.0] [--csv]
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bounds/replication_bounds.hpp"
#include "cli/args.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"

int main(int argc, char** argv) {
  using namespace rdp;
  Args args(argc, argv);
  const auto m = args.integer<MachineId>("m", 210, 1, "machines");
  const std::vector<double> alphas = args.reals("alphas", "1.1,1.5,2.0", "alphas");
  const bool csv = args.toggle("csv", "print CSV");
  args.finish_or_exit();

  if (csv) {
    CsvWriter w(std::cout);
    w.row({"alpha", "replication", "k_groups", "ls_group", "lpt_no_choice",
           "lpt_no_restriction", "thm1_lower_bound"});
    for (double alpha : alphas) {
      for (MachineId r : feasible_replication_degrees(m)) {
        w.typed_row(alpha, static_cast<std::size_t>(r),
                    static_cast<std::size_t>(m / r),
                    thm4_ls_group(alpha, m, m / r), thm2_lpt_no_choice(alpha, m),
                    thm3_lpt_no_restriction(alpha, m),
                    thm1_no_replication_lower_bound(alpha, m));
      }
    }
    return EXIT_SUCCESS;
  }

  for (double alpha : alphas) {
    std::cout << "=== Figure 3: m=" << m << ", alpha=" << alpha << " ===\n";
    const MachineId beats = min_replication_beating_lower_bound(alpha, m);
    if (beats != 0) {
      std::cout << "(LS-Group beats the no-replication lower bound from r="
                << beats << " replicas)\n";
    }
    TextTable table({"replication r", "k=m/r", "LS-Group", "LPT-NoChoice",
                     "LPT-NoRestr", "Thm1 LB"});
    for (MachineId r : feasible_replication_degrees(m)) {
      table.add_row({std::to_string(r), std::to_string(m / r),
                     fmt(thm4_ls_group(alpha, m, m / r)),
                     fmt(thm2_lpt_no_choice(alpha, m)),
                     fmt(thm3_lpt_no_restriction(alpha, m)),
                     fmt(thm1_no_replication_lower_bound(alpha, m))});
    }
    std::cout << table.render() << "\n";
  }

  std::cout
      << "Shape checks (paper Section 7):\n"
      << " * alpha=1.1: LS-Group barely improves on LPT-NoChoice; visible gap\n"
      << "   between LPT-NoChoice guarantee and the Thm1 lower bound.\n"
      << " * alpha=1.5: LS-Group(k=1) matches LPT-NoRestriction; many useful\n"
      << "   intermediate points.\n"
      << " * alpha=2.0: LS-Group beats the *no-replication lower bound* with\n"
      << "   <50 replicas; ratio drops from >7.5 (r=1) to <6 with r=3.\n";
  return EXIT_SUCCESS;
}
