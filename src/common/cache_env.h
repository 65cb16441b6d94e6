// The CSI_CACHE environment override: the one parser every cache tier and
// the csi_build_info export read, so the process-wide "is this tier forced
// off" answer cannot disagree between them.

#ifndef CSI_SRC_COMMON_CACHE_ENV_H_
#define CSI_SRC_COMMON_CACHE_ENV_H_

#include <cstdlib>
#include <string>

namespace csi {

// The "off" spellings CSI_CACHE accepts for a tier.
inline bool CacheOffSpelling(const std::string& value) {
  return value == "off" || value == "OFF" || value == "0" || value == "none";
}

// True when CSI_CACHE disables the named tier. The value is a comma-separated
// list of <name>:off entries (= also accepted as the separator), e.g.
// CSI_CACHE=prefix:off,result:off; <name> is prefix, candidate, result, or
// all. Reads the environment on every call — the per-cache EnvForcesOff
// wrappers latch the result in a function-local static.
inline bool CsiCacheEnvDisables(const char* name) {
  const char* env = std::getenv("CSI_CACHE");
  if (env == nullptr) {
    return false;
  }
  const std::string spec(env);
  const std::string want(name);
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) {
      comma = spec.size();
    }
    const std::string token = spec.substr(pos, comma - pos);
    size_t sep = token.find(':');
    if (sep == std::string::npos) {
      sep = token.find('=');
    }
    if (sep != std::string::npos) {
      const std::string key = token.substr(0, sep);
      if ((key == want || key == "all") && CacheOffSpelling(token.substr(sep + 1))) {
        return true;
      }
    }
    pos = comma + 1;
  }
  return false;
}

}  // namespace csi

#endif  // CSI_SRC_COMMON_CACHE_ENV_H_
