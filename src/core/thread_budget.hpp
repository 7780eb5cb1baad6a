// The process-global worker-thread budget.
//
// Every scheduler in the engine — the restart fan of runtime::run_batch,
// the run × island × replica task tree of runtime::solve_batch, and the
// async submission drainers of service::Service — executes on one shared
// runtime::ExecutorPool sized from this budget.  That is what makes the
// budget a real ceiling: K concurrent service submissions × their
// BatchParams::threads can no longer multiply into oversubscription,
// because there are only `thread_budget()` schedulable threads in the
// whole process, however many batches are in flight.
//
// The knob lives in core/ (below runtime/) so both the pool and the
// config/serving layers can read it without a layering cycle.  Resolution
// order: an explicit set_thread_budget() call, else the
// HYCIM_THREAD_BUDGET environment variable, else hardware_concurrency()
// (with the standard "0 on exotic hosts" fallback to 1).
//
// Lowering the budget after the pool has started narrows the width of
// every subsequently dispatched batch (new task trees are capped at the
// new value); already-spawned workers are not torn down.  Raising it lets
// the pool grow on the next dispatch.
#pragma once

namespace hycim::core {

/// The resolved budget: explicit > $HYCIM_THREAD_BUDGET > hardware
/// concurrency, never 0.
unsigned thread_budget();

/// Overrides the budget process-wide (0 restores automatic resolution).
void set_thread_budget(unsigned budget);

/// The raw override as last set (0 when resolution is automatic) — lets
/// callers save/restore the knob around a scoped change.
unsigned requested_thread_budget();

}  // namespace hycim::core
