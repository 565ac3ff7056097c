// Workloads of the end-to-end benchmark: the Order/Pay instance generator,
// the query mix each workload sends, and the seeded request sequence.
//
// The generator and its PRNG belong to the benchmark, not to the library, so
// an instance depends only on (workload, seed) and never on library code a
// change under test might touch. Counts that drive cost (Pay rows, null
// rows, distinct nulls) are exact rather than drawn, so that the cost of a
// workload moves little from seed to seed; the seed picks which orders are
// paid, where the nulls sit and which nulls are shared.

#ifndef INCDB_BENCH_E2E_WORKLOADS_H_
#define INCDB_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/query_engine.h"
#include "service/service.h"

namespace e2e {

/// splitmix64: small, fast and fully specified, so streams never change.
class Prng {
 public:
  explicit Prng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n);
  /// Uniform in [lo, hi].
  int64_t Between(int64_t lo, int64_t hi);
  double Unit();

 private:
  uint64_t state_;
};

/// Mixes a seed with a stream index into an independent seed.
uint64_t SeedFor(uint64_t seed, uint64_t stream);

/// Shape of one Order(o_id, product) / Pay(p_id, order_id, amount) instance.
struct InstanceSpec {
  size_t orders = 0;
  /// Pay rows = round(pay_fraction · orders), one per paid order.
  double pay_fraction = 0.8;
  /// Pay rows whose order_id is a marked null = round(null_density · rows).
  double null_density = 0.0;
  /// Share of null rows that repeat an earlier null (0 = Codd table).
  double null_reuse = 0.0;
  /// Upper bound on distinct nulls (0 = none).
  size_t null_cap = 0;
  int64_t products = 200;  ///< product ids 1..products
  int64_t amount_lo = 1;   ///< amounts amount_lo..amount_hi
  int64_t amount_hi = 100;
};

/// The instance as an io.h dump (byte-identical for equal arguments).
std::string GenerateDump(const InstanceSpec& spec, uint64_t seed);

/// One kind of request a workload sends.
struct MixEntry {
  std::string name;
  incdb::AnswerNotion notion = incdb::AnswerNotion::kNaive;
  incdb::Backend backend = incdb::Backend::kEnumeration;
  double threshold = 1.0;
  bool sql = false;
  /// Query text; for point lookups a template with "{K}" for the key.
  std::string text;
  /// Slots in each block of the request sequence.
  int weight = 1;
  /// The plan scans Pay, which ingestion changes (ingest_mixed only).
  bool reads_pay = false;
  bool point_lookup = false;
};

struct Workload {
  std::string name;
  InstanceSpec instance;
  std::vector<MixEntry> mix;
  /// Server plan-cache capacity (0 = off: every query takes the cold path).
  size_t cache_capacity = 0;
  /// Open-loop writer: Pay batches of `ingest_rows` every `ingest_period_ms`
  /// on the third connection (0 = no writer; three readers).
  int ingest_period_ms = 0;
  int ingest_rows = 0;
  double ingest_null_share = 0.0;
  /// Point-lookup keys: Zipf(zipf_s) ranks over this many orders.
  size_t point_keys = 0;
  double zipf_s = 0.0;
};

/// All workloads, in run order.
const std::vector<Workload>& AllWorkloads();
const Workload* FindWorkload(const std::string& name);

/// One concrete request: which mix entry, and its query line.
struct Request {
  size_t entry = 0;
  std::string line;  ///< "query ..." or "sql ..."
};

/// The wire line of `entry` ("query ..." / "sql ..."); `key` fills the
/// point-lookup template.
std::string RequestLine(const MixEntry& entry, int64_t key = 0);

/// The seeded request sequence of a workload: request i is a pure function
/// of (workload, seed, i). Each block of sum(weight) requests holds every
/// entry exactly `weight` times in a seeded order, so mix shares are exact.
class RequestSequence {
 public:
  RequestSequence(const Workload& w, uint64_t seed);
  Request At(uint64_t i) const;
  /// Every point-lookup key the sequence can produce (all `point_keys`).
  const std::vector<int64_t>& point_keys() const { return keys_; }

 private:
  const Workload& w_;
  uint64_t seed_;
  std::vector<size_t> slots_;        // entry index per block slot
  std::vector<int64_t> keys_;        // Zipf rank -> order id
  std::vector<double> zipf_cdf_;
};

/// Ingestion batch j of the open-loop writer: "Pay <p_id> <order_id>
/// <amount>" lines. p_ids and fresh null ids continue past the instance's.
std::vector<std::string> IngestBatch(const Workload& w, uint64_t seed,
                                     uint64_t j);

/// The same rows as the service's in-process Ingest takes them.
std::vector<incdb::IngestRow> ToIngestRows(
    const std::vector<std::string>& lines);

/// Per-connection protocol state (notion/backend/threshold), starting at the
/// server's defaults.
struct SessionState {
  incdb::AnswerNotion notion = incdb::AnswerNotion::kNaive;
  incdb::Backend backend = incdb::Backend::kEnumeration;
  double threshold = 1.0;
};

/// The state lines ("notion ...", "backend ...", "threshold ...") that put a
/// connection in `state` into `entry`'s mode; updates `state`.
std::vector<std::string> StateLines(const MixEntry& entry,
                                    SessionState* state);

/// Server-side world budget (incdb_serve --max_worlds).
inline constexpr uint64_t kServerMaxWorlds = 200'000;

/// The query request the server builds for `entry` on a connection that
/// sent `threads 1`, with the server's world budget applied.
incdb::QueryRequest MakeRequest(const MixEntry& entry, const std::string& line);

}  // namespace e2e

#endif  // INCDB_BENCH_E2E_WORKLOADS_H_
