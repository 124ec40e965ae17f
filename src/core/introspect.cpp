#include "core/introspect.h"

#include <mutex>

#include "crypto/keccak.h"
#include "telemetry/introspect.h"

namespace gem2::core {

void RegisterCoreIntrospection() {
  static std::once_flag once;
  std::call_once(once, [] {
    auto& introspection = telemetry::Introspection::Global();
    introspection.RegisterProvider("keccak", [] {
      return telemetry::ProviderFacts{
          {"permutations", crypto::KeccakPermutationCount()},
      };
    });
  });
}

}  // namespace gem2::core
