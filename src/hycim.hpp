// The one-include public surface of the HyCiM engine.
//
//   #include "hycim.hpp"
//
//   hycim::service::Service service;          // long-lived session
//   hycim::service::Request request;
//   request.instance = hycim::cop::generate_qkp({}, /*seed=*/7);
//   request.batch.restarts = 64;
//   auto reply = service.solve(request);      // or service.submit(request)
//
// Layers exposed here, top down:
//   service/  the serving front door: cached programmed chips, sync solve,
//             async submit futures, cache observability
//   cop/      problem classes + the AnyInstance registry lowering them onto
//             the generic constrained-QUBO form
//   runtime/  the parallel batch runner (deterministic per seed):
//             solve_batch fans restarts — single walks, replica-exchange
//             ensembles, or archipelagos, as HyCimConfig::search selects
//   core/     the HyCimSolver facade and the constrained form itself, for
//             callers embedding the engine below the service layer
//             (HyCimConfig::search selects what anneal::run_search runs
//             — see anneal/strategy.hpp, re-exported through the facade)
//
// Deeper layers (cim/, device/, anneal/, qubo/, hw/, util/) remain
// directly includable for benches and tests; they are deliberately not
// pulled in here.
#pragma once

#include "cop/adapters.hpp"
#include "cop/any_instance.hpp"
#include "core/constrained_form.hpp"
#include "core/hycim_solver.hpp"
#include "runtime/batch_runner.hpp"
#include "service/request_hash.hpp"
#include "service/service.hpp"
