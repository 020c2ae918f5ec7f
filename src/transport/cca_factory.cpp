#include <stdexcept>

#include "transport/bbr.hpp"
#include "transport/cca.hpp"
#include "transport/cubic.hpp"
#include "transport/hvc_cc.hpp"
#include "transport/vegas.hpp"
#include "transport/vivace.hpp"

namespace hvc::transport {

namespace {

template <typename C>
CcaPtr make() {
  return std::make_unique<C>();
}

constexpr sim::Named<CcaMaker> kCcaTable[] = {
    {"cubic", &make<Cubic>},   {"bbr", &make<Bbr>},
    {"vegas", &make<Vegas>},   {"vivace", &make<Vivace>},
    {"hvc", &make<HvcAwareCc>},
};

}  // namespace

constinit const std::span<const sim::Named<CcaMaker>> kCcas = kCcaTable;

CcaPtr make_cca(const std::string& name) {
  if (const auto* c = sim::find_name(kCcas, name)) return c->value();
  throw std::invalid_argument("unknown CCA: " + name);
}

}  // namespace hvc::transport
