#ifndef XRANK_BENCH_E2E_HOST_PROBE_H_
#define XRANK_BENCH_E2E_HOST_PROBE_H_

// How fast the host runs at the moment. On a shared VM the same work takes
// up to half again as long when other tenants are busy, for minutes at a
// time. The probe times a fixed piece of work that shares no code with the
// library (sorting, hashing and a branchy byte scan, all within a core's
// L2), so a run can express its timings at the reference host speed:
// timing * kReferenceProbeMs / probe time. The work and its input are
// constants, identical on every commit.

#include <cstdint>
#include <string>
#include <vector>

namespace xrank::e2e {

// The probe's median time on the reference host: a 4-core x86-64 VM
// (Xeon, 2.0 GHz) at a quiet moment.
constexpr double kReferenceProbeMs = 20.0;

class HostProbe {
 public:
  HostProbe();

  // One timed execution, in milliseconds.
  double RunMs();

 private:
  std::vector<uint64_t> keys_;
  std::string text_;
  uint64_t sink_ = 0;  // keeps the work observable
};

}  // namespace xrank::e2e

#endif  // XRANK_BENCH_E2E_HOST_PROBE_H_
