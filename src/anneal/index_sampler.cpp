#include "anneal/index_sampler.hpp"

#include <algorithm>
#include <stdexcept>

namespace hycim::anneal {

void IndexSampler::reset(std::span<const std::uint8_t> x) {
  bits_.assign(x.begin(), x.end());
  ones_.clear();
  zeros_.clear();
  ones_.reserve(x.size());
  zeros_.reserve(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    (x[i] ? ones_ : zeros_).push_back(static_cast<std::uint32_t>(i));
  }
}

void IndexSampler::flip(std::size_t i) {
  if (i >= bits_.size()) throw std::out_of_range("IndexSampler::flip: index");
  auto& from = bits_[i] ? ones_ : zeros_;
  auto& to = bits_[i] ? zeros_ : ones_;
  bits_[i] ^= 1;
  // i sits at position p of its list, so p of the indices below i share
  // its value and the other i - p are in the other list: that is where i
  // goes.
  const auto at = std::lower_bound(from.begin(), from.end(),
                                   static_cast<std::uint32_t>(i));
  const auto p = static_cast<std::size_t>(at - from.begin());
  from.erase(at);
  to.insert(to.begin() + static_cast<std::ptrdiff_t>(i - p),
            static_cast<std::uint32_t>(i));
}

}  // namespace hycim::anneal
