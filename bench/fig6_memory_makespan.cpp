// Reproduces Figure 6 (a,b,c): the memory-makespan guarantee tradeoff of
// SABO_Delta and ABO_Delta for the paper's three configurations:
//   (a) m=5, alpha^2=2, rho1=rho2=4/3
//   (b) m=5, alpha^2=3, rho1=rho2=1
//   (c) m=5, alpha^2=3, rho1=rho2=4/3
// Each curve is swept over Delta; the impossibility frontier (the paper's
// bold line, from the cited SBO work) is printed alongside.
//
// Usage: fig6_memory_makespan [--points=9] [--csv]
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "bounds/memaware_bounds.hpp"
#include "cli/args.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"

namespace {

struct Config {
  const char* label;
  rdp::MachineId m;
  double alpha2;
  double rho;
};

constexpr Config kConfigs[] = {
    {"(a) m=5, alpha^2=2, rho=4/3", 5, 2.0, 4.0 / 3.0},
    {"(b) m=5, alpha^2=3, rho=1", 5, 3.0, 1.0},
    {"(c) m=5, alpha^2=3, rho=4/3", 5, 3.0, 4.0 / 3.0},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace rdp;
  Args args(argc, argv);
  const int points = args.integer<int>("points", 9, 1, "Delta grid points");
  const bool csv = args.toggle("csv", "print CSV");
  args.finish_or_exit();

  if (csv) {
    CsvWriter w(std::cout);
    w.row({"config", "algorithm", "delta", "makespan_guarantee",
           "memory_guarantee"});
    for (const Config& c : kConfigs) {
      const double alpha = std::sqrt(c.alpha2);
      for (auto algo : {MemAwareAlgorithm::kSabo, MemAwareAlgorithm::kAbo}) {
        for (const auto& pt :
             guarantee_curve(algo, alpha, c.m, c.rho, c.rho, 0.05, 20.0, points)) {
          w.typed_row(c.label, algo == MemAwareAlgorithm::kSabo ? "SABO" : "ABO",
                      pt.delta, pt.guarantee.makespan, pt.guarantee.memory);
        }
      }
    }
    return EXIT_SUCCESS;
  }

  for (const Config& c : kConfigs) {
    const double alpha = std::sqrt(c.alpha2);
    std::cout << "=== Figure 6 " << c.label << " ===\n";
    TextTable table({"Delta", "SABO makespan", "SABO memory", "ABO makespan",
                     "ABO memory", "frontier mem@SABO"});
    for (const auto& pt : guarantee_curve(MemAwareAlgorithm::kSabo, alpha, c.m, c.rho,
                                          c.rho, 0.05, 20.0, points)) {
      const BiObjectiveGuarantee abo =
          abo_guarantee(pt.delta, alpha, c.m, c.rho, c.rho);
      const double frontier =
          pt.guarantee.makespan > 1.0
              ? impossibility_memory_for_makespan(pt.guarantee.makespan)
              : 0.0;
      table.add_row({fmt(pt.delta, 3), fmt(pt.guarantee.makespan),
                     fmt(pt.guarantee.memory), fmt(abo.makespan), fmt(abo.memory),
                     fmt(frontier)});
    }
    std::cout << table.render() << "\n";
  }

  std::cout
      << "Shape checks (paper Section 'Summarizing the Memory Aware Model'):\n"
      << " * SABO always dominates ABO on the memory guarantee.\n"
      << " * For alpha*rho1 >= 2 (configs b, c) ABO reaches makespan\n"
      << "   guarantees below SABO's floor alpha^2*rho1 (e.g. < 3 in (b)).\n"
      << " * No curve crosses below the impossibility frontier.\n";
  return EXIT_SUCCESS;
}
