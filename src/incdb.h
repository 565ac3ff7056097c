// incdb — umbrella header.
//
// A C++ library for querying incomplete databases with correct certain
// answers, implementing the framework of:
//
//   Leonid Libkin. "Incomplete Data: What Went Wrong, and How to Fix It."
//   PODS 2014.
//
// Layering (bottom-up):
//   util/     — Status/Result, strings, deterministic PRNG, thread pool
//   core/     — values, marked nulls, relations, databases, valuations,
//               OWA/CWA/WCWA semantics, homomorphisms, information
//               orderings, direct products, possible-world enumeration
//   algebra/  — relational algebra (σπ×∪−∩÷Δ), fragment classification,
//               naïve / SQL-3VL evaluation, certain answers
//   logic/    — FO formulas, model checking, diagram formulas δ_D,
//               conjunctive queries, tableau duality, containment
//   ctables/  — conditional tables (Condition trees, the text format) and
//               the Imieliński–Lipski algebra on dictionary codes with
//               conditions in a per-query arena (the c-table backend)
//   counting/ — probabilistic answers: exact world counting by independence
//               factoring, seeded Monte-Carlo valuation sampling with
//               Wilson confidence intervals
//   sql/      — SQL subset: parser, 3VL & naïve evaluation, certain-answer
//               rewriting
//   exchange/ — st-tgd schema mappings and the naïve chase
//   repr/     — certainty as object (glb) and as knowledge (theory), domain
//               laws of the paper's abstract representation systems
//   service/  — long-running multi-session query service: versioned
//               database snapshots, prepared-plan cache, admission control
//   workload/ — deterministic workload generators (naïve and c-table)
//   testing/  — differential fuzzing harness: random plan generator,
//               multi-configuration oracle, case shrinking, .inc corpus

#ifndef INCDB_INCDB_H_
#define INCDB_INCDB_H_

#include "algebra/ast.h"
#include "algebra/certain.h"
#include "algebra/classify.h"
#include "algebra/eval.h"
#include "algebra/parser.h"
#include "algebra/eval_3vl.h"
#include "algebra/optimize.h"
#include "algebra/predicate.h"
#include "constraints/fd.h"
#include "core/core_of.h"
#include "core/database.h"
#include "core/homomorphism.h"
#include "core/io.h"
#include "core/ordering.h"
#include "core/possible_worlds.h"
#include "core/product.h"
#include "core/relation.h"
#include "core/schema.h"
#include "core/tuple.h"
#include "core/valuation.h"
#include "core/value.h"
#include "counting/probabilistic.h"
#include "counting/sampler.h"
#include "counting/world_count.h"
#include "ctables/cio.h"
#include "ctables/code_ctable.h"
#include "ctables/cond_arena.h"
#include "ctables/condition.h"
#include "ctables/ctable.h"
#include "ctables/ctable_algebra.h"
#include "cqa/repairs.h"
#include "engine/delta_eval.h"
#include "engine/kernels.h"
#include "engine/query_engine.h"
#include "engine/stats.h"
#include "engine/world_encoding.h"
#include "exchange/chase.h"
#include "exchange/general_chase.h"
#include "exchange/mapping.h"
#include "logic/containment.h"
#include "logic/cq.h"
#include "logic/diagram.h"
#include "logic/formula.h"
#include "logic/model_check.h"
#include "logic/rule_parser.h"
#include "repr/certain_knowledge.h"
#include "repr/certain_object.h"
#include "repr/domain_laws.h"
#include "sql/aggregate_bounds.h"
#include "sql/eval.h"
#include "sql/parser.h"
#include "service/plan_cache.h"
#include "service/service.h"
#include "service/snapshot.h"
#include "sql/rewrite.h"
#include "sql/to_algebra.h"
#include "testing/corpus.h"
#include "testing/fuzz_gen.h"
#include "testing/fuzzer.h"
#include "testing/oracle.h"
#include "testing/shrink.h"
#include "views/views.h"
#include "util/random.h"
#include "util/scanner.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "workload/generators.h"

#endif  // INCDB_INCDB_H_
