#include "host_probe.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

namespace xrank::e2e {

namespace {

constexpr size_t kSortKeys = size_t{1} << 16;
constexpr size_t kHashKeys = size_t{1} << 14;
constexpr size_t kTextBytes = size_t{1} << 20;

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

HostProbe::HostProbe() {
  static constexpr char kAlphabet[] = "<a b=\"c\">text de fgh</a>\n";
  uint64_t state = 1;
  text_.resize(kTextBytes);
  for (char& c : text_) {
    c = kAlphabet[SplitMix(&state) % (sizeof(kAlphabet) - 1)];
  }
}

double HostProbe::RunMs() {
  const auto start = std::chrono::steady_clock::now();
  uint64_t state = 2;
  keys_.resize(kSortKeys);
  for (uint64_t& k : keys_) k = SplitMix(&state);
  std::sort(keys_.begin(), keys_.end());

  std::unordered_map<uint64_t, uint32_t> map;
  for (size_t i = 0; i < kHashKeys; ++i) {
    map[keys_[i * 4]] = static_cast<uint32_t>(i);
  }
  for (uint64_t key : keys_) {
    auto it = map.find(key);
    if (it != map.end()) sink_ += it->second;
  }

  // Branchy byte scanning, as a tokenizer does.
  uint64_t tags = 0, words = 0;
  bool in_word = false;
  for (char c : text_) {
    if (c == '<') {
      ++tags;
    } else if (c == ' ' || c == '\n' || c == '>') {
      in_word = false;
    } else if (!in_word) {
      in_word = true;
      ++words;
    }
  }
  sink_ += tags + words;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace xrank::e2e
