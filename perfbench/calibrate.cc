// Host-speed reference kernel of the benchmark (see README.md).
//
// A fixed amount of work that shares nothing with the simulator: random
// read-modify-writes over a 256 KiB table mixed with integer arithmetic,
// the kind of load a cache model's inner loop puts on the core. The
// runner times one of these before every codic_run process and scales
// that process's time by reference / measured, so a host that runs
// slower for a while (contention from other tenants) slows both alike
// and the ratio stays put. A change to the simulator cannot move it.
//
// The table stays in the core's own caches on purpose: a table larger
// than the last-level cache made the kernel's time follow the machine's
// DRAM traffic, which the simulator barely feels, and swing 0.06-0.13 s
// while codic_run held within 2%.
//
// Prints the seconds of the timed loop, then a checksum that keeps the
// loop from being optimized away.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

int main() {
  constexpr size_t kWords = (size_t{256} << 10) / sizeof(uint64_t);
  constexpr int kSteps = 16'000'000;
  std::vector<uint64_t> table(kWords);
  for (size_t i = 0; i < kWords; ++i) table[i] = i * 0x9E3779B97F4A7C15ull;

  const auto t0 = std::chrono::steady_clock::now();
  uint64_t x = 1, acc = 0;
  for (int step = 0; step < kSteps; ++step) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    uint64_t& word = table[x % kWords];
    acc += word;
    word = acc ^ (word >> 3);
    for (int k = 0; k < 8; ++k) acc = acc * 6364136223846793005ull + (acc >> 29) + k;
  }
  const auto t1 = std::chrono::steady_clock::now();
  std::printf("%.9f %llu\n", std::chrono::duration<double>(t1 - t0).count(),
              static_cast<unsigned long long>(acc));
  return 0;
}
