// Enumeration tables. Each set of names a scenario can give (policies,
// CCAs, 5G profiles, fault kinds, channel types, ...) is declared once,
// as one table owned by the module that builds from it: the spec parser
// validates names against the table and lists it in its errors, and the
// builder maps a name to what the table pairs it with.
#pragma once

#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>

namespace hvc::sim {

/// One entry of an enumeration table: a name and what it selects.
template <typename T>
struct Named {
  std::string_view name;
  T value;
};

constexpr std::string_view name_of(std::string_view entry) { return entry; }
template <typename T>
constexpr std::string_view name_of(const Named<T>& entry) {
  return entry.name;
}

/// The entry of `table` called `name`, or nullptr.
template <typename Table>
constexpr auto find_name(const Table& table, std::string_view name)
    -> decltype(&*std::begin(table)) {
  for (const auto& entry : table) {
    if (name_of(entry) == name) return &entry;
  }
  return nullptr;
}

/// The value `table` pairs with `name`; throws std::invalid_argument
/// ("unknown <what> '<name>'") when the table has no such entry.
template <typename Table>
const auto& value_of(const Table& table, std::string_view name,
                     std::string_view what) {
  const auto* entry = find_name(table, name);
  if (entry == nullptr) {
    throw std::invalid_argument("unknown " + std::string(what) + " '" +
                                std::string(name) + "'");
  }
  return entry->value;
}

/// The name `table` gives `value`; "unknown" when it has none. Every
/// name is a string literal, so the view is null-terminated.
template <typename Table, typename T>
constexpr std::string_view name_for(const Table& table, const T& value) {
  for (const auto& entry : table) {
    if (entry.value == value) return entry.name;
  }
  return "unknown";
}

}  // namespace hvc::sim
