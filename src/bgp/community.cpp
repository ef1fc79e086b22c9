#include "moas/bgp/community.h"

#include <algorithm>

namespace moas::bgp {

std::string Community::to_string() const {
  return std::to_string(asn()) + ":" + std::to_string(value());
}

std::string LargeCommunity::to_string() const {
  return std::to_string(global_admin_) + ":" + std::to_string(data1_) + ":" +
         std::to_string(data2_);
}

namespace intern {

template <typename T>
Set<T>::Set(std::initializer_list<T> values) : data_(make_set(std::vector<T>(values))) {}

template <typename T>
void Set<T>::add(T value) {
  if (contains(value)) return;
  std::vector<T> values = this->values();
  values.push_back(value);
  data_ = make_set(std::move(values));
}

template <typename T>
void Set<T>::remove(T value) {
  if (!contains(value)) return;
  std::vector<T> values = this->values();
  values.erase(std::remove(values.begin(), values.end(), value), values.end());
  data_ = make_set(std::move(values));
}

template <typename T>
bool Set<T>::contains(T value) const {
  // The interned values are sorted and unique.
  return data_ && std::binary_search(data_->values.begin(), data_->values.end(), value);
}

template <typename T>
std::string Set<T>::to_string() const {
  std::string out;
  for (const T& value : values()) {
    if (!out.empty()) out += ' ';
    out += value.to_string();
  }
  return out;
}

template class Set<Community>;
template class Set<LargeCommunity>;

}  // namespace intern

}  // namespace moas::bgp
