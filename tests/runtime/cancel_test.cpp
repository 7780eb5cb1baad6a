// Cooperative cancellation and seeded fault injection: token semantics
// (sticky cancel, deadlines, parent chaining), the burn-once transient
// fault contract, and the batch-level any-time guarantees — cancelled
// batches keep finished runs bit-identical, skipped runs can never win
// aggregation, and an armed-but-silent token or injector changes nothing.
#include "runtime/cancel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <vector>

#include "cop/adapters.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/fault_injector.hpp"

namespace hycim::runtime {
namespace {

using namespace std::chrono_literals;

/// Disarms the global injector on scope exit so no test leaks a plan.
struct FaultGuard {
  FaultGuard() { util::fault_injector().disarm(); }
  ~FaultGuard() { util::fault_injector().disarm(); }
};

cop::QkpInstance qkp_instance(std::uint64_t seed, std::size_t n) {
  cop::QkpGeneratorParams params;
  params.n = n;
  params.density_percent = 50;
  return cop::generate_qkp(params, seed);
}

core::HyCimConfig software_config(std::size_t iterations) {
  core::HyCimConfig config;
  config.sa.iterations = iterations;
  config.filter_mode = core::FilterMode::kSoftware;
  return config;
}

core::HyCimConfig tempered_config(std::size_t iterations) {
  core::HyCimConfig config = software_config(iterations);
  anneal::TemperingParams tempering;
  tempering.replicas = 4;
  tempering.exchange_interval = 64;
  config.search = tempering;
  return config;
}

BatchResult qkp_batch(const cop::QkpInstance& inst,
                      const core::HyCimConfig& config,
                      const BatchParams& params) {
  const auto form = cop::to_constrained_form(inst);
  const auto init = [&inst](util::Rng& rng) {
    return cop::random_feasible(inst, rng);
  };
  return solve_batch(form, config, init, params);
}

void expect_batches_identical(const BatchResult& a, const BatchResult& b) {
  EXPECT_EQ(a.best_x, b.best_x);
  EXPECT_EQ(a.best_energy, b.best_energy);
  EXPECT_EQ(a.best_run, b.best_run);
  EXPECT_EQ(a.status, b.status);
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t r = 0; r < a.runs.size(); ++r) {
    EXPECT_EQ(a.runs[r].best_x, b.runs[r].best_x) << "run " << r;
    EXPECT_EQ(a.runs[r].best_energy, b.runs[r].best_energy) << "run " << r;
    EXPECT_EQ(a.runs[r].evaluated, b.runs[r].evaluated) << "run " << r;
    EXPECT_EQ(a.runs[r].status, b.runs[r].status) << "run " << r;
  }
}

TEST(CancelToken, DefaultIsUnarmedAndNeverStops) {
  const CancelToken token;
  EXPECT_FALSE(token.armed());
  EXPECT_EQ(token.should_stop(), StopReason::kNone);
}

TEST(CancelToken, CancelIsSticky) {
  CancelSource source;
  const CancelToken token = source.token();
  EXPECT_TRUE(token.armed());
  EXPECT_EQ(token.should_stop(), StopReason::kNone);
  source.cancel();
  EXPECT_EQ(token.should_stop(), StopReason::kCancelled);
  EXPECT_EQ(token.should_stop(), StopReason::kCancelled);  // stays fired
}

TEST(CancelToken, DeadlineFires) {
  CancelSource future_source;
  future_source.set_deadline_after(1h);
  EXPECT_EQ(future_source.token().should_stop(), StopReason::kNone);

  CancelSource expired_source;
  expired_source.set_deadline_after(-1ns);
  EXPECT_EQ(expired_source.token().should_stop(),
            StopReason::kDeadlineExceeded);
}

TEST(CancelToken, CancelWinsOverExpiredDeadline) {
  CancelSource source;
  source.set_deadline_after(-1ns);
  source.cancel();
  EXPECT_EQ(source.token().should_stop(), StopReason::kCancelled);
}

TEST(CancelToken, ParentChainsPropagate) {
  CancelSource parent;
  CancelSource child({parent.token(), CancelToken{}});  // unarmed is dropped
  const CancelToken token = child.token();
  EXPECT_EQ(token.should_stop(), StopReason::kNone);
  parent.cancel();
  EXPECT_EQ(token.should_stop(), StopReason::kCancelled);
}

TEST(CancelToken, ChildDeadlineIndependentOfParent) {
  CancelSource parent;
  CancelSource child({parent.token()});
  child.set_deadline_after(-1ns);
  EXPECT_EQ(child.token().should_stop(), StopReason::kDeadlineExceeded);
  EXPECT_EQ(parent.token().should_stop(), StopReason::kNone);
}

TEST(FaultInjector, DisarmedIsANoOp) {
  const FaultGuard guard;
  auto& injector = util::fault_injector();
  EXPECT_FALSE(injector.armed());
  EXPECT_NO_THROW(
      injector.maybe_fault(util::FaultSite::kReplicaSegment, 1, 2, 3));
  EXPECT_FALSE(
      injector.persistent_fault(util::FaultSite::kChipHealth, 42));
}

TEST(FaultInjector, TransientFaultsBurnEachCoordinateOnce) {
  const FaultGuard guard;
  auto& injector = util::fault_injector();
  util::FaultPlan plan;
  plan.seed = 7;
  plan.segment_rate = 1.0;
  injector.arm(plan);

  try {
    injector.maybe_fault(util::FaultSite::kReplicaSegment, 1, 2, 3);
    FAIL() << "expected an injected fault";
  } catch (const util::FaultError& e) {
    EXPECT_EQ(e.site(), util::FaultSite::kReplicaSegment);
    EXPECT_TRUE(e.transient());
  }
  // The retry of the same coordinate deterministically succeeds...
  EXPECT_NO_THROW(
      injector.maybe_fault(util::FaultSite::kReplicaSegment, 1, 2, 3));
  // ...while a fresh coordinate still fires.
  EXPECT_THROW(
      injector.maybe_fault(util::FaultSite::kReplicaSegment, 1, 2, 4),
      util::FaultError);
  const util::FaultStats stats = injector.stats();
  EXPECT_EQ(stats.injected, 2u);
  EXPECT_EQ(stats.injected_by_site[static_cast<std::size_t>(
                util::FaultSite::kReplicaSegment)],
            2u);
}

TEST(FaultInjector, DecisionsAreAPureFunctionOfThePlanSeed) {
  const FaultGuard guard;
  auto& injector = util::fault_injector();
  util::FaultPlan plan;
  plan.seed = 11;
  plan.segment_rate = 0.5;
  // Record which of 64 coordinates fire, then re-arm and replay: the
  // firing set must be identical (decisions hash the seed, not history).
  std::vector<bool> first_pass;
  for (int round = 0; round < 2; ++round) {
    injector.arm(plan);
    std::vector<bool> fired;
    for (std::uint64_t c = 0; c < 64; ++c) {
      bool f = false;
      try {
        injector.maybe_fault(util::FaultSite::kReplicaSegment, c);
      } catch (const util::FaultError&) {
        f = true;
      }
      fired.push_back(f);
    }
    if (round == 0) {
      first_pass = fired;
      // A 0.5 rate over 64 coordinates fires somewhere in between.
      EXPECT_NE(std::count(first_pass.begin(), first_pass.end(), true), 0);
      EXPECT_NE(std::count(first_pass.begin(), first_pass.end(), true), 64);
    } else {
      EXPECT_EQ(fired, first_pass);
    }
  }
}

TEST(FaultInjector, PersistentFaultsAreStateless) {
  const FaultGuard guard;
  auto& injector = util::fault_injector();
  util::FaultPlan plan;
  plan.seed = 3;
  plan.health_rate = 0.5;
  injector.arm(plan);
  // The same key answers the same way forever — no burn, no flip.
  for (std::uint64_t key = 0; key < 16; ++key) {
    const bool first =
        injector.persistent_fault(util::FaultSite::kChipHealth, key);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(
          injector.persistent_fault(util::FaultSite::kChipHealth, key),
          first);
    }
  }
}

TEST(BatchCancel, PreCancelledTokenSkipsEveryRun) {
  const auto inst = qkp_instance(1, 16);
  CancelSource source;
  source.cancel();
  BatchParams params;
  params.restarts = 6;
  params.threads = 2;
  params.seed = 42;
  params.cancel = source.token();
  const BatchResult batch = qkp_batch(inst, software_config(400), params);

  EXPECT_EQ(batch.status, core::SolveStatus::kCancelled);
  EXPECT_EQ(batch.runs_stopped, 6u);
  EXPECT_FALSE(batch.feasible);
  EXPECT_TRUE(batch.best_x.empty());
  ASSERT_EQ(batch.runs.size(), 6u);
  for (const RunRecord& run : batch.runs) {
    EXPECT_EQ(run.status, core::SolveStatus::kCancelled);
    EXPECT_TRUE(run.best_x.empty());
    // The +inf placeholder can never win aggregation.
    EXPECT_TRUE(std::isinf(run.best_energy));
    EXPECT_EQ(run.evaluated, 0u);
  }
}

TEST(BatchCancel, ArmedButSilentTokenIsBitIdenticalAtAnyWidth) {
  const auto inst = qkp_instance(2, 18);
  for (const auto& config : {software_config(600), tempered_config(300)}) {
    BatchParams plain;
    plain.restarts = 4;
    plain.threads = 1;
    plain.seed = 9;
    const BatchResult reference = qkp_batch(inst, config, plain);
    EXPECT_EQ(reference.status, core::SolveStatus::kOk);
    for (const unsigned threads : {1u, 2u, 0u}) {
      CancelSource source;
      source.set_deadline_after(1h);  // armed, never fires
      BatchParams armed = plain;
      armed.threads = threads;
      armed.cancel = source.token();
      expect_batches_identical(reference, qkp_batch(inst, config, armed));
    }
  }
}

TEST(BatchCancel, MidBatchCancelPreservesFinishedRunsBitIdentically) {
  // Width-1 batches execute runs inline in index order, so cancelling
  // from inside run 1 deterministically yields: run 0 finished (and
  // bit-identical to the uncancelled batch), runs 2+ skipped.
  BatchParams params;
  params.restarts = 5;
  params.threads = 1;
  params.seed = 21;
  const RunFn work = [](std::size_t run, util::Rng& rng) {
    RunRecord record;
    record.best_x = {static_cast<std::uint8_t>(run & 1)};
    record.best_energy = static_cast<double>(rng.next_u64() >> 40);
    record.feasible = true;
    record.evaluated = run + 1;
    return record;
  };
  const BatchResult reference = run_batch(params, work);

  CancelSource source;
  BatchParams cancelled = params;
  cancelled.cancel = source.token();
  const RunFn cancelling_work = [&](std::size_t run, util::Rng& rng) {
    if (run == 1) source.cancel();
    return work(run, rng);
  };
  const BatchResult partial = run_batch(cancelled, cancelling_work);

  EXPECT_EQ(partial.status, core::SolveStatus::kCancelled);
  EXPECT_EQ(partial.runs_stopped, 3u);  // runs 2..4 skipped
  ASSERT_EQ(partial.runs.size(), 5u);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(partial.runs[r].status, core::SolveStatus::kOk);
    EXPECT_EQ(partial.runs[r].best_x, reference.runs[r].best_x);
    EXPECT_EQ(partial.runs[r].best_energy, reference.runs[r].best_energy);
  }
  for (std::size_t r = 2; r < 5; ++r) {
    EXPECT_EQ(partial.runs[r].status, core::SolveStatus::kCancelled);
    EXPECT_TRUE(partial.runs[r].best_x.empty());
  }
  // The winner is chosen among finished runs only.
  EXPECT_LT(partial.best_run, 2u);
  EXPECT_TRUE(partial.feasible);
}

TEST(BatchCancel, DeadlineMidSolveYieldsPartialAnyTimeResult) {
  // A walk budget far beyond what any machine completes in 20 ms: the
  // deadline fires at a segment checkpoint and the run returns its
  // best-so-far instead of nothing.
  const auto inst = qkp_instance(3, 20);
  CancelSource source;
  source.set_deadline_after(20ms);
  BatchParams params;
  params.restarts = 1;
  params.threads = 1;
  params.seed = 5;
  params.cancel = source.token();
  const BatchResult batch =
      qkp_batch(inst, software_config(200'000'000), params);

  EXPECT_EQ(batch.status, core::SolveStatus::kDeadlineExceeded);
  ASSERT_EQ(batch.runs.size(), 1u);
  EXPECT_EQ(batch.runs[0].status, core::SolveStatus::kDeadlineExceeded);
  EXPECT_FALSE(batch.runs[0].best_x.empty());  // any-time partial result
  EXPECT_GT(batch.runs[0].evaluated, 0u);
  EXPECT_LT(batch.runs[0].evaluated, 200'000'000u);
  EXPECT_TRUE(batch.feasible);
}

TEST(BatchFaults, SegmentFaultPropagatesOutOfTheBatch) {
  const FaultGuard guard;
  util::FaultPlan plan;
  plan.seed = 13;
  plan.segment_rate = 1.0;
  util::fault_injector().arm(plan);

  const auto inst = qkp_instance(4, 14);
  BatchParams params;
  params.restarts = 2;
  params.threads = 1;
  params.seed = 17;
  EXPECT_THROW(qkp_batch(inst, software_config(400), params),
               util::FaultError);
  EXPECT_GE(util::fault_injector().stats().injected, 1u);
}

TEST(BatchFaults, ArmedButColdSiteIsBitIdentical) {
  // Arming the injector (fabrication-only plan) flips every strategy onto
  // its checkpointed path, but a site that never fires must not perturb a
  // single decision of the walk.
  const auto inst = qkp_instance(5, 16);
  BatchParams params;
  params.restarts = 3;
  params.threads = 2;
  params.seed = 33;
  for (const auto& config : {software_config(500), tempered_config(250)}) {
    const BatchResult reference = qkp_batch(inst, config, params);
    const FaultGuard guard;
    util::FaultPlan plan;
    plan.seed = 99;
    plan.fabrication_rate = 1.0;  // no fabrication seam below the service
    util::fault_injector().arm(plan);
    expect_batches_identical(reference, qkp_batch(inst, config, params));
  }
}

}  // namespace
}  // namespace hycim::runtime
