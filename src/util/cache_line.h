// One value alone on its own cache line. A counter or lock that several
// threads write, placed next to data that other threads write, makes each
// write invalidate the neighbours' line too (false sharing). Wrapping it in
// CacheLinePadded gives it the whole line: its address and size are
// multiples of kCacheLineBytes, in arrays as well as in structs.

#ifndef GROUTING_SRC_UTIL_CACHE_LINE_H_
#define GROUTING_SRC_UTIL_CACHE_LINE_H_

#include <cstddef>

namespace grouting {

// x86-64 and most ARM64 cores; a larger line only means two values share one.
inline constexpr size_t kCacheLineBytes = 64;

template <typename T>
struct alignas(kCacheLineBytes) CacheLinePadded {
  T value{};
};

}  // namespace grouting

#endif  // GROUTING_SRC_UTIL_CACHE_LINE_H_
