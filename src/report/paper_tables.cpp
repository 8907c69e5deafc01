#include "report/paper_tables.hpp"

#include <algorithm>
#include <array>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "algorithms/list_order.hpp"
#include "algorithms/lsrc.hpp"
#include "algorithms/online_batch.hpp"
#include "algorithms/portfolio.hpp"
#include "algorithms/scheduler.hpp"
#include "algorithms/shelf.hpp"
#include "bounds/anomalies.hpp"
#include "bounds/guarantees.hpp"
#include "bounds/lower_bounds.hpp"
#include "core/availability.hpp"
#include "core/gantt.hpp"
#include "exact/bnb.hpp"
#include "generators/adversarial.hpp"
#include "generators/reservations.hpp"
#include "generators/transform.hpp"
#include "generators/workload.hpp"
#include "sim/metrics.hpp"
#include "sim/service_sim.hpp"
#include "util/checked.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace resched {
namespace {

// Builds one PaperFigure: everything written lands in its text, and every
// table also lands in its table list.
class FigureWriter {
 public:
  void header(const std::string& experiment, const std::string& description) {
    text_ << "\n=== " << experiment << " ===\n" << description << "\n\n";
  }
  void table(std::string label, Table table) {
    text_ << table.to_string() << "\n";
    figure_.tables.push_back({std::move(label), std::move(table)});
  }
  std::ostream& text() { return text_; }
  void keep_instance(std::string stem, Instance instance) {
    figure_.instances.emplace_back(std::move(stem), std::move(instance));
  }
  PaperFigure finish() {
    figure_.text = text_.str();
    return std::move(figure_);
  }

 private:
  std::ostringstream text_;
  PaperFigure figure_;
};

void claim(bool holds, const std::string& what) {
  if (!holds) throw std::logic_error("paper claim failed: " + what);
}

Time makespan_of(const char* scheduler, const Instance& instance) {
  return make_scheduler(scheduler)->schedule(instance).value().makespan(
      instance);
}

double ratio_of(Time achieved, Time reference) {
  return static_cast<double>(achieved) / static_cast<double>(reference);
}

// ---- the anomalies' churn sweep ------------------------------------------
//
// The service-level analog of the batch anomalies: a cancellation only
// removes work, yet the rescheduled tail can WAIT LONGER than under the
// untouched queue -- the open-loop counterpart of Graham's job-removal
// anomaly. The sweep runs the service harness at a fixed sub-saturation rate
// under two churn mixes: "cancel" (cancellations only -- pure improvements,
// so any p99 growth is anomalous in Graham's sense) and "full" (drops and
// window moves too, which genuinely remove capacity and are expected to
// hurt). Fixed seed => deterministic tables.

constexpr std::uint64_t kChurnSeed = 42;
constexpr double kChurnOffered = 300.0;

std::int64_t p99_or_zero(const LatencyRecorder& ticks) {
  return ticks.count() > 0 ? ticks.percentile(0.99) : 0;
}

void write_churn_sweep(FigureWriter& out) {
  out.header(
      "Churn-scenario sweep (service-level anomalies)",
      "Open-loop service (m = 32, rate 300/kt, seed 42) under deterministic "
      "churn.\n\"cancel\" mix only withdraws jobs -- a pure improvement, so "
      "wait-p99 growth over\nthe churn-free baseline (column `anomaly`) is "
      "Graham's removal anomaly in the\nonline setting. \"full\" mix adds "
      "availability drops + window moves.");

  Table table({"scheduler", "mix", "churn/kt", "events", "canceled",
               "wait p99", "resp p99", "sustained", "anomaly"});
  for (const char* name : {"easy", "conservative", "fcfs"}) {
    const auto scheduler = make_scheduler(name);
    const ServiceStepResult baseline =
        churn_sweep_step(*scheduler, 0.0, false);
    const std::int64_t base_wait = p99_or_zero(baseline.wait_ticks);
    table.add(name, "none", 0, 0, 0, base_wait,
              p99_or_zero(baseline.response_ticks),
              format_double(baseline.sustained_rate, 1), "-");
    for (const bool cancel_only : {true, false}) {
      for (const double rate : {10.0, 30.0, 60.0}) {
        const ServiceStepResult step =
            churn_sweep_step(*scheduler, rate, cancel_only);
        const std::int64_t wait = p99_or_zero(step.wait_ticks);
        // Anomalous only under the cancel-only mix: capacity never shrank,
        // yet the tail waits longer than with no churn at all.
        const bool anomalous = cancel_only && wait > base_wait;
        table.add(name, cancel_only ? "cancel" : "full",
                  format_double(rate, 0), step.churn_events, step.canceled,
                  wait, p99_or_zero(step.response_ticks),
                  format_double(step.sustained_rate, 1),
                  anomalous ? "YES" : "no");
      }
    }
  }
  out.table("churn", std::move(table));
  out.text() << "(cancel-mix rows marked YES waited longer at p99 than with "
                "no churn, despite\nchurn only ever removing work)\n";
}

// One row of the priority ablation: the mean / max ratio against the
// certified lower bound over 20 random workloads, each scheduled by
// make(seed).
template <class MakeScheduler>
void add_ablation_row(Table& table, const std::string& name,
                      MakeScheduler&& make) {
  OnlineStats stats;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    WorkloadConfig config;
    config.n = 80;
    config.m = 32;
    config.p_max = 60;
    const Instance instance = random_workload(config, seed * 101);
    stats.add(
        ratio_of(make(seed).schedule(instance).value().makespan(instance),
                 makespan_lower_bound(instance)));
  }
  table.add(name, format_double(stats.mean(), 4),
            format_double(stats.max(), 4));
}

}  // namespace

Instance fig2_staircase_instance(std::uint64_t seed, std::size_t n,
                                 ProcCount m) {
  WorkloadConfig config;
  config.n = n;
  config.m = m;
  config.p_max = 12;
  const Instance base = random_workload(config, seed);
  StaircaseConfig stairs;
  stairs.steps = 4;
  stairs.max_initial = m / 2;
  stairs.max_step_duration = 15;
  return with_nonincreasing_reservations(base, stairs, seed + 9000);
}

Instance alpha_sweep_instance(std::uint64_t seed, const Rational& alpha) {
  WorkloadConfig config;
  config.n = 80;
  config.m = 32;
  config.alpha = alpha;
  config.p_max = 40;
  const Instance base = random_workload(config, seed);
  AlphaReservationConfig resa;
  resa.alpha = alpha;
  resa.count = 6;
  resa.horizon = 150;
  resa.max_duration = 40;
  return with_alpha_restricted_reservations(base, resa, seed + 5000);
}

ServiceStepResult churn_sweep_step(const Scheduler& scheduler, double rate,
                                   bool cancel_only) {
  LoadGenConfig load;
  load.m = 32;
  load.p_min = 1;
  load.p_max = 30;
  load.alpha = Rational(1, 2);
  ServiceConfig config;
  config.phases = ServicePhases{50, 250, 50};
  config.dispatch_window = 64;
  config.bail_queue_depth = 2000;
  config.record_wall_latency = false;  // fully deterministic step
  config.churn.events_per_kilotick = rate;
  if (cancel_only) {
    config.churn.availability_drop_weight = 0.0;
    config.churn.reservation_move_weight = 0.0;
  }
  return run_service_step(scheduler, load, kChurnSeed, kChurnOffered, config);
}

PaperFigure fig1_inapproximability() {
  FigureWriter out;
  out.header(
      "Figure 1 / Theorem 1 (inapproximability with unrestricted "
      "reservations)",
      "m = 1 reduction from 3-PARTITION: any heuristic that misses the "
      "packing is pushed\npast the final reservation, so its ratio exceeds "
      "the presumed guarantee rho.");

  Prng prng(2026);
  const std::size_t k = 3;
  const std::int64_t B = 24;
  const ThreePartitionInstance partition =
      random_strict_yes_instance(k, B, prng);
  const ThreePartitionSolution solution = solve_three_partition(partition);

  Table table({"rho", "OPT", "gap threshold", "C_FCFS", "C_CBF", "C_LSRC",
               "worst ratio", "exceeds rho?"});
  for (const std::int64_t rho : {1, 2, 4, 8, 16}) {
    const Theorem1Reduction reduction = theorem1_reduction(partition, rho);
    const Time fcfs = makespan_of("fcfs", reduction.instance);
    const Time cbf = makespan_of("conservative", reduction.instance);
    const Time lsrc = makespan_of("lsrc", reduction.instance);
    const Rational ratio = makespan_ratio(std::max({fcfs, cbf, lsrc}),
                                          reduction.opt_if_solvable);
    const bool exceeds = ratio > Rational(rho);
    claim(exceeds, "Fig. 1 rho = " + std::to_string(rho) +
                       ": the worst ratio exceeds rho");
    table.add(rho, reduction.opt_if_solvable, reduction.gap_threshold, fcfs,
              cbf, lsrc, ratio, exceeds ? "yes" : "no");
  }
  out.table("reduction", std::move(table));
  out.text() << "(the constructed optimum from the known partition: "
             << (solution.solvable ? "exists and equals OPT" : "unsolvable")
             << ")\n";

  out.header(
      "Theorem 1, n' = 1 variant",
      "One full-width reservation placed right after the rigid optimum "
      "turns the makespan\ndecision into a gap: a wrong order jumps past "
      "the block.");
  const Instance rigid(2, {Job{0, 1, 3, 0, ""}, Job{1, 1, 3, 0, ""},
                           Job{2, 1, 2, 0, ""}, Job{3, 1, 2, 0, ""},
                           Job{4, 1, 2, 0, ""}});
  const Time opt = optimal_makespan(rigid);
  Table gap_table({"gap length L", "OPT (exact B&B)", "C_LSRC", "LSRC/OPT"});
  Rational previous(0);
  for (const Time L : {Time{10}, Time{100}, Time{1000}, Time{10000}}) {
    const Instance gapped = add_gap_reservation(rigid, opt, L);
    const Time exact = optimal_makespan(gapped);
    const Time greedy = makespan_of("lsrc", gapped);
    const Rational ratio = makespan_ratio(greedy, exact);
    claim(ratio > previous, "Fig. 1 n' = 1, L = " + std::to_string(L) +
                                ": LSRC/OPT grows with L");
    previous = ratio;
    gap_table.add(L, exact, greedy, ratio);
  }
  out.table("gap", std::move(gap_table));
  out.text() << "(the bad/OPT column grows linearly in L: no finite "
                "guarantee survives)\n";
  return out.finish();
}

PaperFigure fig2_nonincreasing() {
  FigureWriter out;
  out.header(
      "Figure 2 / Proposition 1 (non-increasing reservations)",
      "Small instances: ratio vs exact optimum never exceeds 2 - 1/m(C*).");

  Table small({"seed", "n", "m", "C*", "m(C*)", "bound 2-1/m(C*)", "C_LSRC",
               "ratio", "within?"});
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    const Instance instance = fig2_staircase_instance(seed, 6, 6);
    const Time optimum = optimal_makespan(instance);
    const ProcCount m_at = availability_at(instance, optimum);
    const Rational bound = nonincreasing_bound(m_at);
    const Time lsrc = makespan_of("lsrc", instance);
    const Rational ratio = makespan_ratio(lsrc, optimum);
    claim(ratio <= bound, "Fig. 2 small seed " + std::to_string(seed) +
                              ": LSRC within 2 - 1/m(C*)");
    small.add(seed, instance.n(), instance.m(), optimum, m_at, bound, lsrc,
              ratio, "yes");
  }
  out.table("small", std::move(small));

  Table large({"seed", "n", "m", "LB", "C_LSRC", "ratio vs LB",
               "weak bound 2-1/m"});
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    const Instance instance = fig2_staircase_instance(seed, 120, 32);
    const Time lb = makespan_lower_bound(instance);
    const Time lsrc = makespan_of("lsrc", instance);
    large.add(seed, instance.n(), instance.m(), lb, lsrc,
              format_double(ratio_of(lsrc, lb), 4),
              graham_bound(instance.m()));
  }
  out.table("large", std::move(large));

  out.header(
      "Transformation I -> I'' (reservations as head-of-list jobs)",
      "The proof's hinge: LSRC gives identical start times on I and I''.");
  Table transform_table({"seed", "reservations", "head jobs", "C_LSRC(I)",
                         "C_LSRC(I'' orig jobs)", "identical?"});
  for (const std::uint64_t seed : {21u, 22u, 23u, 24u}) {
    const Instance instance = fig2_staircase_instance(seed, 40, 16);
    const Schedule direct = LsrcScheduler().schedule(instance).value();
    const HeadJobTransform transform = reservations_to_head_jobs(instance);
    const Schedule indirect =
        LsrcScheduler().schedule(transform.rigid).value();
    bool identical = true;
    Time indirect_makespan = 0;
    for (const Job& job : instance.jobs()) {
      const JobId mapped = transform.job_map[static_cast<std::size_t>(job.id)];
      identical &= indirect.start(mapped) == direct.start(job.id);
      indirect_makespan = std::max(indirect_makespan,
                                   checked_add(indirect.start(mapped), job.p));
    }
    claim(identical, "Fig. 2 transform seed " + std::to_string(seed) +
                         ": LSRC starts identical on I and I''");
    transform_table.add(seed, instance.n_reservations(),
                        transform.head_ids.size(), direct.makespan(instance),
                        indirect_makespan, "yes");
  }
  out.table("transform", std::move(transform_table));
  return out.finish();
}

PaperFigure fig3_adversarial() {
  FigureWriter out;
  out.header(
      "Figure 3 / Proposition 2 (lower bound instances)",
      "LSRC(bad order) achieves ratio exactly 2/alpha - 1 + alpha/2 at "
      "alpha = 2/k;\nthe paper's printed instance is the k = 6 row. "
      "LSRC(LPT) lands on the optimum.");

  Table table({"k", "alpha", "m", "C*", "C_LSRC(bad)", "ratio",
               "predicted 2/a-1+a/2", "upper 2/a", "C_LSRC(lpt)"});
  for (const std::int64_t k : {2, 3, 4, 5, 6, 8, 10, 12}) {
    Prop2Family family = prop2_instance(k);
    const Time opt = family.optimal_makespan;
    const Time bad = makespan_of("lsrc", family.instance);
    const Time lpt = makespan_of("lsrc-lpt", family.instance);
    const Rational ratio = makespan_ratio(bad, opt);
    const std::string row = "Fig. 3 k = " + std::to_string(k) + ": ";
    claim(ratio == prop2_ratio_for_k(k),
          row + "the ratio equals 2/alpha - 1 + alpha/2");
    claim(lpt == opt, row + "LSRC(lpt) lands on C*");
    if (k == 6)
      claim(family.instance.m() == 180 && opt == 6 && bad == 31,
            row + "the paper's instance reads m = 180, C* = 6, C_LSRC = 31");
    table.add(k, Rational(2, k), family.instance.m(), opt, bad, ratio,
              prop2_ratio_for_k(k), alpha_upper_bound(Rational(2, k)), lpt);
    out.keep_instance("prop2_k" + std::to_string(k),
                      std::move(family.instance));
  }
  out.table("prop2", std::move(table));
  out.text() << "(paper check: k = 6 row must read C* = 6, C_LSRC = 31, "
                "ratio 31/6)\n";
  return out.finish();
}

PaperFigure fig4_bounds() {
  FigureWriter out;
  out.header(
      "Figure 4 (bounds for LSRC on alpha-RESASCHEDULING)",
      "Upper bound 2/alpha and lower bounds B1 >= B2 as functions of alpha;\n"
      "the curves approach each other near alpha = 2/k.");

  Table curve({"alpha", "B2", "B1", "upper 2/alpha"});
  for (int i = 5; i <= 100; i += 5) {
    const Rational alpha(i, 100);
    curve.add(format_double(alpha.to_double(), 2),
              format_double(lsrc_lower_bound_b2(alpha).to_double(), 4),
              format_double(lsrc_lower_bound_b1(alpha).to_double(), 4),
              format_double(alpha_upper_bound(alpha).to_double(), 4));
  }
  out.table("curve", std::move(curve));

  Table achieved({"alpha = 2/k", "k", "B2", "B1", "achieved (measured)",
                  "upper 2/alpha"});
  for (const std::int64_t k : {2, 3, 4, 5, 6, 8, 10}) {
    const Rational alpha(2, k);
    Prop2Family family = prop2_instance(k);
    const Rational ratio =
        makespan_ratio(makespan_of("lsrc", family.instance),
                       family.optimal_makespan);
    const Rational b1 = lsrc_lower_bound_b1(alpha);
    const Rational b2 = lsrc_lower_bound_b2(alpha);
    const Rational upper = alpha_upper_bound(alpha);
    claim(b2 <= b1 && b1 <= ratio && ratio <= upper,
          "Fig. 4 k = " + std::to_string(k) +
              ": B2 <= B1 <= achieved <= 2/alpha");
    achieved.add(alpha, k, b2, b1, ratio, upper);
    out.keep_instance("prop2_k" + std::to_string(k),
                      std::move(family.instance));
  }
  out.table("achieved", std::move(achieved));
  out.text() << "(B1 = B2 = achieved at every constructive point: the lower "
                "bound is exact there)\n";
  return out.finish();
}

PaperFigure alpha_sweep() {
  FigureWriter out;
  out.header(
      "Alpha sweep (empirical companion to Prop. 3)",
      "Mean / max makespan ratio vs certified lower bound over 10 seeds per "
      "alpha.\nThe 2/alpha column is the worst-case envelope; averages sit "
      "well below it.");

  const std::array<Rational, 7> alphas{Rational(1, 8), Rational(1, 4),
                                       Rational(1, 3), Rational(1, 2),
                                       Rational(2, 3), Rational(3, 4),
                                       Rational(1, 1)};
  const std::array<const char*, 5> algorithms{"lsrc", "lsrc-lpt", "fcfs",
                                              "conservative", "easy"};

  // stats[algorithm][alpha]: every instance is generated once and scheduled
  // by all five algorithms, seeds in ascending order.
  std::array<std::array<OnlineStats, alphas.size()>, algorithms.size()> stats;
  for (std::size_t a = 0; a < alphas.size(); ++a) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      Instance instance = alpha_sweep_instance(seed * 37, alphas[a]);
      const Time lb = makespan_lower_bound(instance);
      for (std::size_t s = 0; s < algorithms.size(); ++s)
        stats[s][a].add(ratio_of(makespan_of(algorithms[s], instance), lb));
      out.keep_instance("alpha_" + std::to_string(alphas[a].num()) + "_" +
                            std::to_string(alphas[a].den()) + "_seed" +
                            std::to_string(seed),
                        std::move(instance));
    }
  }

  for (std::size_t s = 0; s < algorithms.size(); ++s) {
    Table table({"alpha", "mean ratio", "max ratio", "envelope 2/alpha"});
    for (std::size_t a = 0; a < alphas.size(); ++a) {
      const double envelope = alpha_upper_bound(alphas[a]).to_double();
      if (s == 0)
        claim(stats[s][a].max() <= envelope,
              "alpha sweep alpha = " + alphas[a].to_string() +
                  ": LSRC's max ratio stays within 2/alpha");
      table.add(format_double(alphas[a].to_double(), 3),
                format_double(stats[s][a].mean(), 4),
                format_double(stats[s][a].max(), 4),
                format_double(envelope, 3));
    }
    out.text() << "-- " << algorithms[s] << "\n";
    out.table(algorithms[s], std::move(table));
  }
  return out.finish();
}

PaperFigure anomalies() {
  FigureWriter out;
  out.header(
      "Scheduling anomalies of independent rigid jobs (extension E11)",
      "Minimal witness: removing job 1 raises the LSRC makespan 7 -> 8.");

  const Instance witness = removal_anomaly_example();
  const auto lsrc = make_scheduler("lsrc");
  {
    const Schedule before = lsrc->schedule(witness).value();
    const Instance reduced = without_job(witness, 1);
    const Schedule after = lsrc->schedule(reduced).value();
    GanttOptions options;
    options.width = 32;
    out.text() << "with all five jobs (C = " << before.makespan(witness)
               << "):\n"
               << ascii_gantt(witness, before, options) << "\n";
    out.text() << "job 1 removed (C = " << after.makespan(reduced) << "):\n"
               << ascii_gantt(reduced, after, options) << "\n";
  }

  out.header(
      "Anomaly frequency across random workloads",
      "100 instances (n = 14, m = 6): share of instances with at least one "
      "anomaly of each\nkind, and the worst observed growth factor "
      "(Theorem 2 caps it at 2 - 1/m = 11/6).");

  const double envelope = graham_bound(6).to_double();
  Table table({"scheduler", "removal %", "shorter %", "extra-machine %",
               "worst growth", "envelope"});
  for (const char* name :
       {"lsrc", "lsrc-lpt", "fcfs", "conservative", "easy"}) {
    const auto scheduler = make_scheduler(name);
    int removal = 0;
    int shorter = 0;
    int extra = 0;
    double worst_growth = 1.0;
    for (int trial = 0; trial < 100; ++trial) {
      WorkloadConfig config;
      config.n = 14;
      config.m = 6;
      config.p_max = 12;
      const Instance instance =
          random_workload(config, static_cast<std::uint64_t>(trial) + 1);
      const AnomalyScan scan = find_anomalies(instance, *scheduler);
      bool saw_removal = false;
      bool saw_shorter = false;
      bool saw_extra = false;
      for (const Anomaly& anomaly : scan.anomalies) {
        worst_growth = std::max(
            worst_growth,
            ratio_of(anomaly.makespan_after, anomaly.makespan_before));
        switch (anomaly.kind) {
          case AnomalyKind::kJobRemoval: saw_removal = true; break;
          case AnomalyKind::kShorterDuration: saw_shorter = true; break;
          case AnomalyKind::kExtraMachine: saw_extra = true; break;
        }
      }
      removal += saw_removal;
      shorter += saw_shorter;
      extra += saw_extra;
    }
    claim(worst_growth < envelope,
          std::string("anomalies ") + name +
              ": the worst growth stays below 2 - 1/m");
    table.add(name, removal, shorter, extra, format_double(worst_growth, 4),
              format_double(envelope, 4));
  }
  out.table("frequency", std::move(table));
  out.text() << "(percentages are per-100-instances counts; every growth "
                "factor stays below the envelope)\n";

  write_churn_sweep(out);
  return out.finish();
}

PaperFigure priority_ablation() {
  FigureWriter out;
  out.header(
      "Priority ablation (conclusion's future work)",
      "Mean / max LSRC ratio vs certified lower bound per list order, over "
      "20 random\nworkloads (n = 80, m = 32), plus the shelf baselines.");

  Table random_table({"order / algorithm", "mean ratio", "max ratio"});
  for (const ListOrder order : all_list_orders())
    add_ablation_row(random_table, "lsrc[" + to_string(order) + "]",
                     [&](std::uint64_t seed) {
                       return LsrcScheduler(order, seed);
                     });
  for (const ShelfPolicy policy :
       {ShelfPolicy::kFirstFit, ShelfPolicy::kNextFit})
    add_ablation_row(random_table, ShelfScheduler(policy).name(),
                     [&](std::uint64_t) { return ShelfScheduler(policy); });
  // Order-searching schedulers (library extensions on the same question).
  add_ablation_row(random_table, "portfolio", [](std::uint64_t seed) {
    return PortfolioScheduler(2, seed);
  });
  add_ablation_row(random_table, "local-search(lpt,100)",
                   [](std::uint64_t seed) {
                     return LocalSearchScheduler(100, ListOrder::kLpt, seed);
                   });
  out.table("random", std::move(random_table));

  out.header(
      "Order sensitivity on the worst-case families",
      "Submission order realises the analytic worst case; LPT defuses both "
      "families.");
  Table families({"family", "C*", "C_LSRC[submission]", "ratio",
                  "analytic bound", "C_LSRC[lpt]"});
  for (const ProcCount m : {4, 8, 16}) {
    const GrahamTightFamily family = graham_tight_instance(m);
    const Time bad = makespan_of("lsrc", family.instance);
    families.add("graham-tight m=" + std::to_string(m),
                 family.optimal_makespan, bad,
                 makespan_ratio(bad, family.optimal_makespan), graham_bound(m),
                 makespan_of("lsrc-lpt", family.instance));
  }
  for (const std::int64_t k : {4, 6, 8}) {
    const Prop2Family family = prop2_instance(k);
    const Time bad = makespan_of("lsrc", family.instance);
    families.add("prop2 k=" + std::to_string(k), family.optimal_makespan, bad,
                 makespan_ratio(bad, family.optimal_makespan),
                 prop2_ratio_for_k(k),
                 makespan_of("lsrc-lpt", family.instance));
  }
  out.table("families", std::move(families));
  return out.finish();
}

PaperFigure online_ladder() {
  FigureWriter out;
  out.header(
      "FCFS pathology (section 2.2: optimal ~1, FCFS ~m)",
      "fcfs_bad_instance(m): FCFS ratio grows linearly in m; conservative "
      "backfilling\nrestores the optimum on this family.");
  Table fcfs_table({"m", "OPT", "C_FCFS", "FCFS ratio", "C_CBF", "C_LSRC",
                    "LSRC ratio"});
  for (const ProcCount m : {2, 4, 8, 16, 24}) {
    const FcfsBadFamily family = fcfs_bad_instance(m);
    const Time fcfs = makespan_of("fcfs", family.instance);
    const Time lsrc = makespan_of("lsrc", family.instance);
    fcfs_table.add(m, family.optimal_makespan, fcfs,
                   format_double(ratio_of(fcfs, family.optimal_makespan), 3),
                   makespan_of("conservative", family.instance), lsrc,
                   format_double(ratio_of(lsrc, family.optimal_makespan), 3));
  }
  out.table("fcfs", std::move(fcfs_table));

  out.header(
      "Release-time trap (backfilling aggressiveness ladder)",
      "cbf_trap_instance(k, m=16, T=50): narrow jobs stream in ahead of "
      "full-width ones.\nwait(G) = mean wait of the full-width jobs "
      "(starvation indicator).");
  Table trap({"rounds k", "LB", "algorithm", "C_max", "ratio vs LB",
              "mean wait", "wait(G jobs)"});
  for (const std::int64_t k : {4, 8, 16}) {
    const Instance instance = cbf_trap_instance(k, 16, 50);
    const Time lb = makespan_lower_bound(instance);
    for (const char* name : {"fcfs", "conservative", "easy", "lsrc"}) {
      const Schedule schedule =
          make_scheduler(name)->schedule(instance).value();
      const ScheduleMetrics metrics = compute_metrics(instance, schedule);
      double g_wait = 0.0;
      for (const Job& job : instance.jobs())
        if (job.q == instance.m())
          g_wait += static_cast<double>(
              checked_sub(schedule.start(job.id), job.release));
      g_wait /= static_cast<double>(k);
      trap.add(k, lb, name, metrics.makespan,
               format_double(ratio_of(metrics.makespan, lb), 3),
               format_double(metrics.mean_wait, 1), format_double(g_wait, 1));
    }
  }
  out.table("trap", std::move(trap));

  out.header(
      "Online doubling batches (section 2.1, Shmoys-Wein-Williamson)",
      "Poisson arrivals; online-batch(base) makespan vs the certified "
      "offline LB.\nGuarantee: <= 2 rho LB with rho = 2 - 1/m.");
  Table online({"seed", "base", "batches", "C_online", "LB", "ratio",
                "2*rho cap"});
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    WorkloadConfig config;
    config.n = 60;
    config.m = 16;
    config.mean_interarrival = 4.0;
    const Instance instance = random_workload(config, seed * 1111);
    const Time lb = makespan_lower_bound(instance);
    for (const char* base : {"lsrc", "conservative"}) {
      OnlineBatchScheduler scheduler(make_scheduler(base));
      std::vector<BatchInfo> batches;
      const Time makespan = scheduler.schedule_with_batches(instance, batches)
                                .value()
                                .makespan(instance);
      const double cap = 2.0 * (2.0 - 1.0 / static_cast<double>(instance.m()));
      online.add(seed, base, batches.size(), makespan, lb,
                 format_double(ratio_of(makespan, lb), 3),
                 format_double(cap, 3));
    }
  }
  out.table("online", std::move(online));
  return out.finish();
}

void write_paper_tables(std::ostream& os) {
  for (PaperFigure (*figure)() :
       {fig1_inapproximability, fig2_nonincreasing, fig3_adversarial,
        fig4_bounds, alpha_sweep, anomalies, priority_ablation, online_ladder})
    os << figure().text;
}

}  // namespace resched
