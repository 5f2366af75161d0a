#include "bench_common.h"

#include <filesystem>

#include "math/simd/dispatch.h"
#include "util/cpu.h"

namespace ss::bench {

JsonValue host_metadata() {
  JsonValue host = JsonValue::object();
  host["cpu_model"] = cpu_model_name();
  host["cpu_features"] = cpu_feature_summary();
#if defined(__clang__)
  host["compiler"] = strprintf("clang %d.%d.%d", __clang_major__,
                               __clang_minor__, __clang_patchlevel__);
#elif defined(__GNUC__)
  host["compiler"] = strprintf("gcc %d.%d.%d", __GNUC__, __GNUC_MINOR__,
                               __GNUC_PATCHLEVEL__);
#else
  host["compiler"] = "unknown";
#endif
  host["kernel_backend"] = simd::active_backend_name();
  host["avx2_compiled"] = simd::avx2_compiled();
  host["avx2_runtime_supported"] = simd::avx2_runtime_supported();
  return host;
}

void write_result(const std::string& name, const JsonValue& doc) {
  std::string dir = results_dir();
  std::filesystem::create_directories(dir);
  JsonValue stamped = doc;
  if (stamped["host"].is_null()) stamped["host"] = host_metadata();
  stamped.write_file(dir + "/" + name + ".json");
}

}  // namespace ss::bench
