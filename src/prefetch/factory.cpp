#include "prefetch/factory.hpp"

#include <stdexcept>

#include "prefetch/lap.hpp"
#include "prefetch/nlp.hpp"
#include "prefetch/stride_prefetchers.hpp"

namespace caps {

std::unique_ptr<Prefetcher> make_baseline_prefetcher(PrefetcherKind kind,
                                                     const GpuConfig& cfg) {
  switch (kind) {
    case PrefetcherKind::kNone:
      return std::make_unique<NullPrefetcher>();
    case PrefetcherKind::kIntra:
      return std::make_unique<IntraWarpPrefetcher>(cfg);
    case PrefetcherKind::kInter:
      return std::make_unique<InterWarpPrefetcher>(cfg);
    case PrefetcherKind::kMta:
      return std::make_unique<MtaPrefetcher>(cfg);
    case PrefetcherKind::kNlp:
      return std::make_unique<NextLinePrefetcher>(cfg);
    case PrefetcherKind::kLap:
    case PrefetcherKind::kOrch:
      return std::make_unique<LocalityAwarePrefetcher>(cfg);
    case PrefetcherKind::kCaps:
      throw std::invalid_argument(
          "make_baseline_prefetcher: CAPS is built by the core library "
          "(core/caps_prefetcher.hpp)");
  }
  throw std::invalid_argument("make_baseline_prefetcher: unknown kind");
}

}  // namespace caps
