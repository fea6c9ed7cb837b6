// Rule table for rmwp-analyze (DESIGN.md §12): everything repo-specific —
// which identifiers count as wall clocks or entropy, which modules are
// deterministic, the src/ layering DAG, and the per-rule allowlists —
// lives here so the checks in analyze.cpp stay mechanical.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace rmwp::analyze {

/// Rule identifiers.  R0 is the meta-rule (waiver hygiene) and cannot be
/// waived; R1–R5 are the determinism/layering rules from DESIGN.md §12.
inline const std::vector<std::pair<std::string, std::string>>& rule_table() {
    static const std::vector<std::pair<std::string, std::string>> rules = {
        {"R0", "waiver hygiene: RMWP_LINT_ALLOW must be well-formed, reasoned, and used"},
        {"R1", "wall-clock reads only in host-time modules"},
        {"R2", "ambient entropy (rand/random_device/getenv) only in seed plumbing"},
        {"R3", "no iteration over unordered containers in deterministic modules"},
        {"R4", "module layering: #include edges must follow the src/ DAG"},
        {"R5", "mutating src/core entry points must carry RMWP_EXPECT/RMWP_ENSURE"},
    };
    return rules;
}

/// Identifiers that read a wall clock (R1).
const std::set<std::string>& clock_identifiers();

/// Identifiers that draw ambient entropy (R2).  `rand` additionally
/// requires a following "(" so `rand_state`-style names stay legal.
const std::set<std::string>& entropy_identifiers();

/// src/ modules whose outputs feed bit-identity invariants (R3 scope):
/// iteration order of hashed containers must never reach their results.
const std::set<std::string>& deterministic_modules();

/// Allowed #include edges between src/ modules, as a transitive closure of
/// the architecture DAG in src/CMakeLists.txt.  closure.at(m) is the set of
/// modules m may include (m itself is always allowed).
const std::map<std::string, std::set<std::string>>& layering_closure();

/// True when `canonical` (path from its src/bench/tests/tools marker, e.g.
/// "src/obs/trace_sink.cpp") is allowlisted for the given rule — the file
/// may use the construct without a waiver.  Kept deliberately short: the
/// allowlist is for whole modules whose *purpose* is host time; individual
/// call sites elsewhere use RMWP_LINT_ALLOW so they show up in the waiver
/// inventory.
bool allowlisted(const std::string& rule, const std::string& canonical);

/// Minimum body length (in lines) before R5 demands a contract: shorter
/// mutators are trivially auditable by eye.
inline constexpr int kContractBodyLines = 5;

} // namespace rmwp::analyze
