// Extension experiment O: heterogeneous per-task uncertainty. The
// paper's guarantees charge every task the global alpha; in practice
// only some tasks are badly predicted. Sweeping the fraction of
// wide-band (alpha=2) tasks among well-predicted (alpha=1.05) ones shows
// how quickly the adversarial damage -- and the value of replication --
// ramps up with the share of uncertain work.
//
// Usage: ext_hetero_bands [--m=6] [--n=30]
#include <cstdlib>
#include <iostream>

#include "algo/strategy.hpp"
#include "bounds/replication_bounds.hpp"
#include "cli/args.hpp"
#include "core/placement.hpp"
#include "exact/optimal.hpp"
#include "io/table.hpp"
#include "perturb/heterogeneous.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace rdp;
  Args args(argc, argv);
  const auto m = args.integer<MachineId>("m", 6, 1, "machines");
  const auto n = args.integer<std::size_t>("n", 30, 1, "tasks");
  args.finish_or_exit();
  const double wide = 2.0, narrow = 1.05;

  WorkloadParams params;
  params.num_tasks = n;
  params.num_machines = m;
  params.alpha = wide;  // global band must cover the widest task
  params.seed = 67;
  const Instance inst = uniform_workload(params, 1.0, 10.0);

  std::cout << "=== Ext-O: per-task uncertainty bands (m=" << m << ", n=" << n
            << ", alpha in {" << narrow << ", " << wide << "}) ===\n"
            << "Global-alpha guarantees: Thm2 = " << fmt(thm2_lpt_no_choice(wide, m))
            << ", Thm3 = " << fmt(thm3_lpt_no_restriction(wide, m)) << "\n\n";

  TextTable table({"noisy fraction", "NoChoice adv ratio", "NoRestr adv ratio",
                   "replication benefit"});
  for (double fraction : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const HeteroBand band =
        HeteroBand::two_class(n, narrow, wide, fraction, 17);

    auto adv_ratio = [&](const TwoPhaseStrategy& s) {
      const Placement placement = s.place(inst);
      const Realization worst =
          adversarial_realization_hetero(inst, placement, band);
      const StrategyResult run = s.run(inst, worst);
      const CertifiedCmax opt = certified_cmax(worst.actual, m, 500'000);
      return run.makespan / opt.lower;
    };
    const double pinned = adv_ratio(make_lpt_no_choice());
    const double full = adv_ratio(make_lpt_no_restriction());
    table.add_row({fmt(fraction, 2), fmt(pinned), fmt(full),
                   fmt(100.0 * (pinned - full) / pinned, 1) + "%"});
  }
  std::cout << table.render()
            << "\nShape: with no noisy tasks both strategies sit near 1 (the\n"
               "global-alpha guarantee is maximally pessimistic); the damage to\n"
               "pinning -- and the share replication removes -- grows with the\n"
               "fraction of genuinely uncertain tasks.\n";
  return EXIT_SUCCESS;
}
