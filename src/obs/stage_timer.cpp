#include "obs/stage_timer.hpp"

namespace rmwp::obs {

const char* to_string(Stage stage) noexcept {
    switch (stage) {
    case Stage::decide: return "decide";
    case Stage::solve: return "solve";
    case Stage::batch_assemble: return "batch_assemble";
    case Stage::sorted_refresh: return "sorted_refresh";
    case Stage::prefilter: return "prefilter";
    case Stage::edf_simulate: return "edf_simulate";
    case Stage::shard_solve: return "shard_solve";
    case Stage::shard_merge: return "shard_merge";
    case Stage::rebuild: return "rebuild";
    }
    return "unknown";
}

#ifdef RMWP_OBS
namespace detail {
constinit thread_local StageStats* t_stage_stats = nullptr;
} // namespace detail
#endif

} // namespace rmwp::obs
