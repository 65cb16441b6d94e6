#include "src/media/ladder.h"

#include <cmath>
#include <string>
#include <utility>

namespace csi::media {

Ladder DefaultVideoLadder() {
  return {
      {"144p", 150 * kKbps},  {"240p", 280 * kKbps},  {"360p", 520 * kKbps},
      {"480p", 1200 * kKbps}, {"720p", 2400 * kKbps}, {"1080p", 4800 * kKbps},
  };
}

Ladder GeometricLadder(int count, BitsPerSec lowest, BitsPerSec highest) {
  Ladder ladder;
  if (count <= 0) {
    return ladder;
  }
  if (count == 1) {
    ladder.push_back({"T1", lowest});
    return ladder;
  }
  const double ratio = std::pow(highest / lowest, 1.0 / static_cast<double>(count - 1));
  double rate = lowest;
  for (int i = 0; i < count; ++i) {
    std::string name = "T";
    name += std::to_string(i + 1);
    ladder.push_back({std::move(name), rate});
    rate *= ratio;
  }
  return ladder;
}

}  // namespace csi::media
