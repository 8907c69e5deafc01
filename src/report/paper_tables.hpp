// The paper's result tables, built in one place.
//
// Each function below builds one reproduced figure, checks the paper's claim
// about it in code and returns what it prints. A claim that fails throws
// std::logic_error naming the figure and the row. The bench binaries print
// each figure's text on stdout before their timings, examples/campaign
// prints fig3, fig4 and the alpha sweep as CSV, and
// tests/test_paper_tables.cpp pins write_paper_tables' full output against
// tests/data/paper_tables.txt.
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "core/instance.hpp"
#include "util/rational.hpp"
#include "util/table.hpp"

namespace resched {

class Scheduler;
struct ServiceStepResult;

struct PaperFigure {
  struct LabeledTable {
    std::string label;
    Table table;
  };
  // The printed record: headers, tables and notes.
  std::string text;
  // The tables inside `text`, in print order.
  std::vector<LabeledTable> tables;
  // The generated instances behind the rows of fig3, fig4 and the alpha
  // sweep, each with a file stem naming its row.
  std::vector<std::pair<std::string, Instance>> instances;
};

// Theorem 1 (Fig. 1): the 3-PARTITION reduction defeats every presumed
// guarantee rho, and the n' = 1 gap variant's LSRC/OPT ratio grows with the
// gap length.
[[nodiscard]] PaperFigure fig1_inapproximability();

// Proposition 1 (Fig. 2): LSRC within 2 - 1/m(C*) on non-increasing
// reservations, and the I -> I'' head-job transform leaves it unchanged.
[[nodiscard]] PaperFigure fig2_nonincreasing();

// Proposition 2 (Fig. 3): the adversarial family at alpha = 2/k reaches
// 2/alpha - 1 + alpha/2; k = 6 is the paper's printed instance.
[[nodiscard]] PaperFigure fig3_adversarial();

// Fig. 4: the 2/alpha upper bound (Prop. 3), the lower bounds B1 >= B2
// (section 4.2), and the ratios achieved at alpha = 2/k.
[[nodiscard]] PaperFigure fig4_bounds();

// Random alpha-restricted workloads against the 2/alpha envelope.
[[nodiscard]] PaperFigure alpha_sweep();

// Graham's anomalies of rigid jobs under every scheduler, within
// Theorem 2's 2 - 1/m, and their online analogue under churn.
[[nodiscard]] PaperFigure anomalies();

// The conclusion's priority-rule question: LSRC list orders, shelf packing
// and order search.
[[nodiscard]] PaperFigure priority_ablation();

// Sections 2.1 and 2.2: the FCFS pathology, the release-time trap and the
// online doubling batches.
[[nodiscard]] PaperFigure online_ladder();

// The eight figures' texts, in the order declared above.
void write_paper_tables(std::ostream& os);

// ---- the generated inputs, shared with the bench timings -----------------

// Fig. 2's random workload (p <= 12) under a 4-step non-increasing
// staircase of at most m/2 processors.
[[nodiscard]] Instance fig2_staircase_instance(std::uint64_t seed,
                                               std::size_t n, ProcCount m);

// The alpha sweep's workload: 80 jobs (p <= 40) on 32 processors under 6
// alpha-restricted reservations.
[[nodiscard]] Instance alpha_sweep_instance(std::uint64_t seed,
                                            const Rational& alpha);

// One step of the anomalies' churn sweep: the service harness at 300
// jobs/kt on m = 32, seed 42, with `rate` churn events per kilotick
// (cancellations only when cancel_only). Deterministic.
[[nodiscard]] ServiceStepResult churn_sweep_step(const Scheduler& scheduler,
                                                 double rate,
                                                 bool cancel_only);

}  // namespace resched
