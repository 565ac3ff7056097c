#include "counting/world_count.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

namespace incdb {
namespace {

uint64_t MulSat(uint64_t a, uint64_t b, bool* saturated) {
  if (a == 0 || b == 0) return 0;
  if (a > UINT64_MAX / b) {
    *saturated = true;
    return UINT64_MAX;
  }
  return a * b;
}

uint64_t PowSat(uint64_t base, size_t exp, bool* saturated) {
  uint64_t out = 1;
  for (size_t i = 0; i < exp; ++i) out = MulSat(out, base, saturated);
  return out;
}

size_t Find(std::vector<size_t>* parent, size_t i) {
  while ((*parent)[i] != i) {
    (*parent)[i] = (*parent)[(*parent)[i]];
    i = (*parent)[i];
  }
  return i;
}

}  // namespace

Result<WorldCount> CountSatisfying(uint32_t c, CondArena* arena,
                                   ValueClassSolver* solver,
                                   const WorldEncoding& enc, uint64_t budget,
                                   EvalStats* stats) {
  WorldCount out;
  if (c == CondArena::kFalse) return out;  // fraction 0, count 0
  const size_t num_nulls = enc.nulls().size();
  const uint64_t dsize = enc.domain_codes().size();
  if (num_nulls > 0 && dsize == 0) {
    return Status::InvalidArgument("empty world domain with nulls present");
  }
  if (c == CondArena::kTrue) {
    // Every valuation agrees with a ground condition.
    out.fraction = 1.0;
    out.count = PowSat(dsize, num_nulls, &out.saturated);
    return out;
  }

  std::vector<uint32_t> ops;
  if (arena->kind(c) == CondArena::Kind::kAnd) {
    const auto span = arena->operands(c);
    ops.assign(span.begin(), span.end());
  } else {
    ops.push_back(c);
  }

  // Union-find over operand indices: operands sharing a null land in one
  // component; components touch disjoint null sets, so counts multiply.
  std::vector<size_t> parent(ops.size());
  std::iota(parent.begin(), parent.end(), 0);
  std::map<uint32_t, size_t> null_owner;
  std::vector<std::vector<uint32_t>> op_slots(ops.size());
  std::vector<uint32_t> codes;
  for (size_t i = 0; i < ops.size(); ++i) {
    arena->Mentions(ops[i], &op_slots[i], &codes);
    for (uint32_t slot : op_slots[i]) {
      INCDB_CHECK_MSG(slot < num_nulls,
                      "condition mentions a null outside the measure space");
      auto [it, inserted] = null_owner.emplace(slot, i);
      if (!inserted) parent[Find(&parent, i)] = Find(&parent, it->second);
    }
  }
  std::map<size_t, std::vector<size_t>> components;  // root -> operand ids
  for (size_t i = 0; i < ops.size(); ++i) {
    components[Find(&parent, i)].push_back(i);
  }

  // Nulls no operand mentions are free: |domain| choices each, all
  // satisfying.
  out.fraction = 1.0;
  out.count = PowSat(dsize, num_nulls - null_owner.size(), &out.saturated);

  uint64_t remaining = budget;
  std::vector<uint32_t> members;
  for (const auto& [root, ids] : components) {
    std::set<uint32_t> comp_slots;
    members.clear();
    for (size_t i : ids) {
      comp_slots.insert(op_slots[i].begin(), op_slots[i].end());
      members.push_back(ops[i]);
    }
    bool comp_saturated = false;
    const uint64_t total = PowSat(dsize, comp_slots.size(), &comp_saturated);
    if (comp_saturated || total > remaining) {
      return Status::ResourceExhausted(
          "exact world counting needs " +
          (comp_saturated ? std::string("2^64+") : std::to_string(total)) +
          " component assignments with budget " + std::to_string(remaining) +
          " left; fall back to sampling");
    }
    remaining -= total;
    if (stats != nullptr) stats->CountWorldsCounted(total);

    // The component's own conjunction mentions exactly its nulls.
    const uint64_t sat_count = solver->CountOwn(arena->AndOf(&members));
    if (sat_count == 0) return WorldCount{};  // fraction 0, count 0
    out.fraction *= static_cast<double>(sat_count) / static_cast<double>(total);
    out.count = MulSat(out.count, sat_count, &out.saturated);
  }
  return out;
}

Result<WorldCount> CountSatisfyingValuations(const ConditionPtr& c,
                                             const std::vector<NullId>& nulls,
                                             const std::vector<Value>& domain,
                                             uint64_t budget,
                                             EvalStats* stats) {
  std::set<NullId> cond_nulls;
  c->CollectNulls(&cond_nulls);
  INCDB_CHECK_MSG(std::includes(nulls.begin(), nulls.end(),
                                cond_nulls.begin(), cond_nulls.end()),
                  "condition mentions a null outside the measure space");
  std::set<Value> constants;
  c->CollectConstants(&constants);
  INCDB_ASSIGN_OR_RETURN(
      const WorldEncoding enc,
      WorldEncoding::FromValues(
          std::vector<Value>(constants.begin(), constants.end()), nulls,
          domain));
  CondArena arena;
  ValueClassSolver solver(&arena, enc);
  return CountSatisfying(ImportCondition(c, enc, &arena), &arena, &solver,
                         enc, budget, stats);
}

}  // namespace incdb
