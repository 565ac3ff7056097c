#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>

namespace e2e {

uint64_t Prng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Prng::Below(uint64_t n) {
  // Rejection keeps the draw exactly uniform.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  uint64_t x = Next();
  while (x >= limit) x = Next();
  return x % n;
}

int64_t Prng::Between(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo + 1)));
}

double Prng::Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

uint64_t SeedFor(uint64_t seed, uint64_t stream) {
  return Prng(seed * 0x2545f4914f6cdd1dull + stream).Next();
}

namespace {

template <typename T>
void Shuffle(std::vector<T>* v, Prng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Below(i)]);
  }
}

size_t PayRows(const InstanceSpec& s) {
  return static_cast<size_t>(std::llround(s.pay_fraction * s.orders));
}

size_t NullRows(const InstanceSpec& s) {
  return static_cast<size_t>(std::llround(s.null_density * PayRows(s)));
}

size_t DistinctNulls(const InstanceSpec& s) {
  const size_t rows = NullRows(s);
  if (rows == 0) return 0;
  size_t distinct =
      rows - static_cast<size_t>(std::llround(s.null_reuse * rows));
  if (s.null_cap > 0) distinct = std::min(distinct, s.null_cap);
  return std::max<size_t>(distinct, 1);
}

// "_<id>": how dumps and the wire protocol spell marked null <id>.
std::string NullToken(uint64_t id) {
  std::string token = "_";
  return token += std::to_string(id);
}

// Streams of one seed: each random decision draws from its own stream so
// that changing one decision's draw count leaves the others unchanged.
enum Stream : uint64_t {
  kProducts = 1,
  kPaidOrders,
  kAmounts,
  kNullRows,
  kNullReuse,
  kSlots = 100,
  kPointKeys,
  kPointDraw,
  kIngest,
};

}  // namespace

std::string GenerateDump(const InstanceSpec& spec, uint64_t seed) {
  Prng products(SeedFor(seed, kProducts));
  std::string out = "table Order(o_id, product)\n";
  for (size_t o = 1; o <= spec.orders; ++o) {
    out += std::to_string(o) + ", " +
           std::to_string(products.Between(1, spec.products)) + "\n";
  }

  std::vector<int64_t> order_ids(spec.orders);
  std::iota(order_ids.begin(), order_ids.end(), 1);
  Prng paid(SeedFor(seed, kPaidOrders));
  Shuffle(&order_ids, &paid);
  const size_t pays = PayRows(spec);
  order_ids.resize(pays);  // p_id i+1 pays order order_ids[i]

  // Null order_ids: the first `distinct` null rows (in seeded order) get
  // fresh nulls, the rest repeat one of them.
  std::vector<size_t> rows(pays);
  std::iota(rows.begin(), rows.end(), 0);
  Prng null_rows(SeedFor(seed, kNullRows));
  Shuffle(&rows, &null_rows);
  rows.resize(NullRows(spec));
  const size_t distinct = DistinctNulls(spec);
  Prng reuse(SeedFor(seed, kNullReuse));
  std::vector<int64_t> null_of(pays, -1);
  for (size_t k = 0; k < rows.size(); ++k) {
    null_of[rows[k]] =
        k < distinct ? static_cast<int64_t>(k)
                     : static_cast<int64_t>(reuse.Below(distinct));
  }

  Prng amounts(SeedFor(seed, kAmounts));
  out += "\ntable Pay(p_id, order_id, amount)\n";
  for (size_t i = 0; i < pays; ++i) {
    const std::string oid = null_of[i] >= 0
                                ? NullToken(null_of[i])
                                : std::to_string(order_ids[i]);
    out += std::to_string(i + 1) + ", " + oid + ", " +
           std::to_string(amounts.Between(spec.amount_lo, spec.amount_hi)) +
           "\n";
  }
  return out;
}

namespace {

using incdb::AnswerNotion;
using incdb::Backend;

const std::string kJoin = "proj{1}(sel[#0 = #3](Order x Pay))";
const std::string kDiff = "proj{0}(Order) - proj{1}(Pay)";
const std::string kNotIn =
    "SELECT o_id FROM Order WHERE o_id NOT IN (SELECT order_id FROM Pay)";

MixEntry Ra(std::string name, AnswerNotion notion, std::string text,
            Backend backend = Backend::kEnumeration, double threshold = 1.0) {
  MixEntry e;
  e.name = std::move(name);
  e.notion = notion;
  e.backend = backend;
  e.threshold = threshold;
  e.text = std::move(text);
  return e;
}

MixEntry Sql(std::string name, AnswerNotion notion, std::string text,
            int weight = 1) {
  MixEntry e = Ra(std::move(name), notion, std::move(text));
  e.sql = true;
  e.weight = weight;
  return e;
}

std::vector<Workload> BuildWorkloads() {
  std::vector<Workload> all;

  Workload sql;
  sql.name = "sql_3vl";
  // SQL text under 3VL, naive, MAYBE and certain: the sql/ evaluator does
  // nearly all the work, most of it in the quadratic NOT IN.
  sql.instance.orders = 3000;
  sql.instance.null_density = 0.05;
  // The four subquery entries take about 25 ms and the rest under 5 ms;
  // weighting them 2:1 puts the median inside the slow group rather than in
  // the gap between the groups, where it would jump between them.
  sql.mix = {
      Sql("not_in_3vl", AnswerNotion::k3VL, kNotIn, 2),
      Sql("not_in_naive", AnswerNotion::kNaive, kNotIn, 2),
      Sql("not_in_maybe", AnswerNotion::kMaybe, kNotIn, 2),
      Sql("in_certain", AnswerNotion::kCertainNaive,
          "SELECT o_id FROM Order WHERE o_id IN (SELECT order_id FROM Pay)",
          2),
      Sql("exists_3vl", AnswerNotion::k3VL,
          "SELECT o_id, product FROM Order WHERE EXISTS (SELECT p_id FROM "
          "Pay WHERE order_id = o_id AND amount > 90)"),
      Sql("or_3vl", AnswerNotion::k3VL,
          "SELECT p_id FROM Pay WHERE amount > 95 OR order_id < 50"),
      Sql("count_3vl", AnswerNotion::k3VL,
          "SELECT amount, COUNT(order_id) FROM Pay GROUP BY amount"),
      Ra("ra_diff_3vl", AnswerNotion::k3VL, kDiff),
  };
  all.push_back(sql);

  Workload ra;
  ra.name = "ra_naive";
  // Naive-family RA on 20k orders with shared nulls: the columnar engine
  // answers, and responses of up to 16k rows load the wire.
  ra.instance.orders = 20000;
  ra.instance.null_density = 0.05;
  ra.instance.null_reuse = 0.3;
  ra.mix = {
      Ra("join_naive", AnswerNotion::kNaive, kJoin),
      Ra("join_certain_naive", AnswerNotion::kCertainNaive, kJoin),
      Ra("join_certain_object", AnswerNotion::kCertainObject, kJoin),
      Ra("diff_naive", AnswerNotion::kNaive, kDiff),
      Ra("select_naive", AnswerNotion::kNaive, "proj{0,1}(sel[#2 > 50](Pay))"),
      Ra("intersect_naive", AnswerNotion::kNaive,
         "proj{0}(Order) & proj{1}(Pay)"),
  };
  all.push_back(ra);

  Workload ct;
  ct.name = "certain_ctable";
  // Certain, possible and probability answers on the c-table backend, 6
  // null rows sharing 2 nulls: condition normalization, DomainSat and world
  // counting do the work. Two nulls over the 152-value domain keep every
  // candidate's world count within the server's budget, so each probability
  // is counted exactly on the query's one thread; with a third null the
  // join's candidates fall back to sampling, whose pass uses every core
  // whatever `threads` says.
  ct.instance.orders = 150;
  ct.instance.null_density = 0.05;
  ct.instance.null_reuse = 0.5;
  ct.instance.null_cap = 2;
  ct.instance.products = 40;
  ct.instance.amount_hi = 50;
  for (const auto& [qname, text] :
       {std::pair<std::string, std::string>{"join", kJoin}, {"diff", kDiff}}) {
    ct.mix.push_back(Ra(qname + "_certain", AnswerNotion::kCertainEnum, text,
                        Backend::kCTable));
    ct.mix.push_back(Ra(qname + "_possible", AnswerNotion::kPossible, text,
                        Backend::kCTable));
    ct.mix.push_back(Ra(qname + "_probability",
                        AnswerNotion::kCertainWithProbability, text,
                        Backend::kCTable, 0.5));
  }
  all.push_back(ct);

  Workload en;
  en.name = "certain_enum";
  // Certain and possible answers by enumerating 152^2 worlds (2 Codd nulls
  // over the 150 constants plus 2 fresh ones): Gray-code drivers, delta
  // evaluation and the subplan cache do the work.
  en.instance.orders = 150;
  en.instance.null_density = 0.02;
  en.instance.null_cap = 2;
  en.instance.products = 16;
  en.instance.amount_hi = 20;
  for (const auto& [qname, text] :
       {std::pair<std::string, std::string>{"join", kJoin}, {"diff", kDiff}}) {
    en.mix.push_back(Ra(qname + "_certain", AnswerNotion::kCertainEnum, text));
    en.mix.push_back(Ra(qname + "_possible", AnswerNotion::kPossible, text));
  }
  all.push_back(en);

  Workload in;
  in.name = "ingest_mixed";
  // Reads beside an open-loop Pay writer with the plan cache on: snapshot
  // publication and exact invalidation. The point-lookup keys outnumber the
  // cache entries; the Order-only plans survive Pay ingests, the Pay plans
  // do not.
  in.instance = ra.instance;
  in.cache_capacity = 256;
  in.ingest_period_ms = 40;
  in.ingest_rows = 10;
  in.ingest_null_share = 0.05;
  in.point_keys = 4096;
  in.zipf_s = 1.1;
  MixEntry point =
      Ra("point_lookup", AnswerNotion::kNaive, "sel[#0 = {K}](Order)");
  point.weight = 5;
  point.point_lookup = true;
  MixEntry pay_join = Ra("pay_join", AnswerNotion::kNaive, kJoin);
  MixEntry pay_select =
      Ra("pay_select", AnswerNotion::kNaive, "proj{0,1}(sel[#2 > 95](Pay))");
  pay_join.reads_pay = pay_select.reads_pay = true;
  in.mix = {
      point,
      Ra("order_products", AnswerNotion::kNaive, "proj{1}(Order)"),
      Ra("order_cheap", AnswerNotion::kNaive, "sel[#1 < 3](Order)"),
      Ra("order_pair", AnswerNotion::kNaive,
         "proj{0}(sel[#1 = 7 OR #1 = 8](Order))"),
      pay_join,
      pay_select,
  };
  all.push_back(in);
  return all;
}

}  // namespace

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> all = BuildWorkloads();
  return all;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

RequestSequence::RequestSequence(const Workload& w, uint64_t seed)
    : w_(w), seed_(seed) {
  for (size_t e = 0; e < w.mix.size(); ++e) {
    for (int k = 0; k < w.mix[e].weight; ++k) slots_.push_back(e);
  }
  if (w.point_keys > 0) {
    std::vector<int64_t> ids(w.instance.orders);
    std::iota(ids.begin(), ids.end(), 1);
    Prng rng(SeedFor(seed, kPointKeys));
    Shuffle(&ids, &rng);
    keys_.assign(ids.begin(), ids.begin() + std::min(w.point_keys, ids.size()));
    double total = 0;
    for (size_t r = 0; r < keys_.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), w.zipf_s);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
  }
}

Request RequestSequence::At(uint64_t i) const {
  const uint64_t block = i / slots_.size();
  std::vector<size_t> order = slots_;
  Prng rng(SeedFor(seed_, kSlots + (block << 8)));
  Shuffle(&order, &rng);
  Request r;
  r.entry = order[i % slots_.size()];
  const MixEntry& e = w_.mix[r.entry];
  int64_t key = 0;
  if (e.point_lookup) {
    const double u = Prng(SeedFor(seed_, kPointDraw + (i << 8))).Unit();
    const size_t rank = static_cast<size_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
        zipf_cdf_.begin());
    key = keys_[std::min(rank, keys_.size() - 1)];
  }
  r.line = RequestLine(e, key);
  return r;
}

std::string RequestLine(const MixEntry& entry, int64_t key) {
  std::string text = entry.text;
  if (entry.point_lookup) {
    text.replace(text.find("{K}"), 3, std::to_string(key));
  }
  return (entry.sql ? "sql " : "query ") + text;
}

std::vector<std::string> IngestBatch(const Workload& w, uint64_t seed,
                                     uint64_t j) {
  Prng rng(SeedFor(seed, kIngest + (j << 8)));
  const InstanceSpec& s = w.instance;
  std::vector<std::string> rows;
  for (int r = 0; r < w.ingest_rows; ++r) {
    const uint64_t k = j * static_cast<uint64_t>(w.ingest_rows) + r;
    const std::string oid =
        rng.Unit() < w.ingest_null_share
            ? NullToken(DistinctNulls(s) + k)
            : std::to_string(rng.Between(1, static_cast<int64_t>(s.orders)));
    rows.push_back("Pay " + std::to_string(PayRows(s) + 1 + k) + " " + oid +
                   " " + std::to_string(rng.Between(s.amount_lo, s.amount_hi)));
  }
  return rows;
}

std::vector<incdb::IngestRow> ToIngestRows(
    const std::vector<std::string>& lines) {
  std::vector<incdb::IngestRow> rows;
  for (const std::string& line : lines) {
    std::istringstream in(line);
    incdb::IngestRow row;
    in >> row.relation;
    std::vector<incdb::Value> values;
    std::string token;
    while (in >> token) {
      values.push_back(
          token[0] == '_'
              ? incdb::Value::Null(std::stoull(token.substr(1)))
              : incdb::Value::Int(std::stoll(token)));
    }
    row.tuple = incdb::Tuple(std::move(values));
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<std::string> StateLines(const MixEntry& entry,
                                    SessionState* state) {
  std::vector<std::string> lines;
  if (entry.notion != state->notion) {
    lines.push_back(std::string("notion ") +
                    incdb::AnswerNotionName(entry.notion));
  }
  if (entry.backend != state->backend) {
    lines.push_back(std::string("backend ") +
                    incdb::BackendName(entry.backend));
  }
  if (entry.threshold != state->threshold) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "threshold %.17g", entry.threshold);
    lines.push_back(buf);
  }
  state->notion = entry.notion;
  state->backend = entry.backend;
  state->threshold = entry.threshold;
  return lines;
}

incdb::QueryRequest MakeRequest(const MixEntry& entry,
                                const std::string& line) {
  const std::string text = line.substr(line.find(' ') + 1);
  incdb::QueryRequest req;
  req.input = entry.sql ? incdb::QueryInput::SqlText(text)
                        : incdb::QueryInput::RaText(text);
  req.notion = entry.notion;
  req.backend = entry.backend;
  req.eval.num_threads = 1;
  req.world_options.max_worlds =
      std::min(req.world_options.max_worlds, kServerMaxWorlds);
  req.probability.threshold = entry.threshold;
  return req;
}

}  // namespace e2e
