#ifndef ASSETBENCH_WORKLOADS_H_
#define ASSETBENCH_WORKLOADS_H_

/// \file workloads.h
/// The three workloads and the layer probes they lend each other.

#include "harness.h"

namespace assetbench {

/// File-backed ledger over the wire: transfers plus read-only audits
/// from one thread over four pipelining connections.
void RunLedgerDurable(const Args& args, Result* r);

/// One connection in ping-pong, Begin+Get+Put+Commit per operation,
/// on an in-memory database.
void RunSessionRtt(const Args& args, Result* r);

/// In-process mix of nested trips, sagas, and cooperative groups.
void RunExtendedModels(const Args& args, Result* r);

/// Wire layers for a workload that has no wire of its own: a short
/// session_rtt-style ping-pong against `db`. Fills the client.*,
/// server.*, and api.* slots of `l`.
void WireProbe(asset::Database& db, uint64_t seed, double seconds, Layers* l,
               Result* r);

/// Model layers for a workload that runs no models: a short
/// extended_models loop on a fresh in-memory database. Fills the
/// models.* slots and core.empty_txn_us.
void ModelsProbe(uint64_t seed, double seconds, Layers* l, Result* r);

}  // namespace assetbench

#endif  // ASSETBENCH_WORKLOADS_H_
