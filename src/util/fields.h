// Field lists for plain counter structs. A struct T opts in by naming every
// uint64_t member once, in declaration order (which is also its wire order),
//
//   static constexpr std::array<uint64_t T::*, N> kFields = {&T::a, ...};
//
// and guarding the list after the struct with
//
//   static_assert(ListsEveryField<T>());
//
// so a member added without listing it fails to compile. Segment arithmetic
// (AddFields / SubtractFields below), the EngineResult codec and the RSS1
// engine section all loop over that one list (trace::ByteWriter::U64Fields).
#ifndef REVNIC_UTIL_FIELDS_H_
#define REVNIC_UTIL_FIELDS_H_

#include <cstdint>

namespace revnic {

template <typename T>
constexpr bool ListsEveryField() {
  return T::kFields.size() * sizeof(uint64_t) == sizeof(T);
}

template <typename T>
T& AddFields(T& a, const T& b) {
  for (auto field : T::kFields) {
    a.*field += b.*field;
  }
  return a;
}

template <typename T>
T& SubtractFields(T& a, const T& b) {
  for (auto field : T::kFields) {
    a.*field -= b.*field;
  }
  return a;
}

}  // namespace revnic

#endif  // REVNIC_UTIL_FIELDS_H_
