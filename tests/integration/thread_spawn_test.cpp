// The zero-thread-spawn steady-state contract (the threading sibling of
// allocation_test's zero-allocation contract): after the shared
// ExecutorPool warms up, the batch, tempered, and async-service solve
// paths construct NO std::threads per solve — scheduling reuses the one
// persistent worker set.  Before the pool, every run_batch call spawned a
// thread vector and every tempered batch built a replica pool; this
// test is what keeps that cost from coming back.
//
// Enforced the blunt way: this binary interposes pthread_create (the
// syscall-adjacent choke point under std::thread) with a counting wrapper
// that tail-calls the real symbol via RTLD_NEXT, warms every path up,
// snapshots the counter, runs many more solves, and pins the delta at
// exactly zero.  One executable per test file keeps the interposition
// contained, exactly like allocation_test's operator-new replacement.
#include <gtest/gtest.h>

#include <dlfcn.h>
#include <pthread.h>

#include <atomic>

#include "core/thread_budget.hpp"
#include "cop/adapters.hpp"
#include "runtime/batch_runner.hpp"
#include "service/service.hpp"

namespace {

std::atomic<int> g_spawns{0};

int thread_spawn_count() { return g_spawns.load(std::memory_order_relaxed); }

}  // namespace

extern "C" int pthread_create(pthread_t* thread, const pthread_attr_t* attr,
                              void* (*start_routine)(void*), void* arg) {
  using RealFn = int (*)(pthread_t*, const pthread_attr_t*, void* (*)(void*),
                         void*);
  static RealFn real =
      reinterpret_cast<RealFn>(dlsym(RTLD_NEXT, "pthread_create"));
  g_spawns.fetch_add(1, std::memory_order_relaxed);
  return real(thread, attr, start_routine, arg);
}

namespace hycim {
namespace {

core::HyCimConfig sa_config() {
  core::HyCimConfig config;
  config.sa.iterations = 60;
  config.filter_mode = core::FilterMode::kSoftware;
  return config;
}

core::HyCimConfig tempered_config() {
  core::HyCimConfig config = sa_config();
  anneal::TemperingParams tempering;
  tempering.replicas = 4;
  tempering.exchange_interval = 10;
  config.search = tempering;
  return config;
}

TEST(ThreadSpawn, ZeroSpawnsPerSolveInSteadyState) {
  // A fixed budget (not the host's core count) so the test exercises real
  // worker spawns the same way on every machine, 1-core CI included.
  const unsigned saved_budget = core::requested_thread_budget();
  core::set_thread_budget(4);

  cop::QkpGeneratorParams gen;
  gen.n = 12;
  gen.density_percent = 50;
  const auto inst = cop::generate_qkp(gen, 3);
  const auto form = cop::to_constrained_form(inst);
  const auto init = [&inst](util::Rng& rng) {
    return cop::random_feasible(inst, rng);
  };
  runtime::BatchParams params;
  params.restarts = 8;
  params.threads = 4;
  params.seed = 11;

  const core::HyCimSolver sa_proto(form, sa_config());
  const core::HyCimSolver tempered_proto(form, tempered_config());
  service::Service svc;
  service::Request request;
  request.instance = inst;
  request.config = sa_config();
  request.batch = params;

  const auto all_paths = [&] {
    (void)runtime::solve_batch(sa_proto, init, params);
    (void)runtime::solve_batch(tempered_proto, init, params);
    svc.submit(request).get();
  };

  // Warmup: first parallel dispatch grows the pool, the first submit
  // posts a drainer onto it.
  all_paths();
  const int warm = thread_spawn_count();
  // budget − 1 pool workers is the only legitimate spawn source (gtest
  // and the solver stack spawn nothing of their own).
  EXPECT_LE(warm, 3);

  // Steady state: every further solve on every path reuses the pool.
  for (int round = 0; round < 20; ++round) all_paths();
  EXPECT_EQ(thread_spawn_count(), warm)
      << "a solve path constructed threads after pool warmup";

  core::set_thread_budget(saved_budget);
}

}  // namespace
}  // namespace hycim
