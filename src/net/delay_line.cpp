#include "net/delay_line.hpp"

#include <cstddef>
#include <memory>

namespace rrtcp::net {

void DelayLine::grow() {
  const std::size_t new_cap = capacity_ == 0 ? kMinCapacity : capacity_ * 2;
  // Default-initialised: nothing is written until it holds packets.
  const std::size_t key_bytes = new_cap * sizeof(Key);
  std::size_t slot_space = alignof(Slot) - 1 + new_cap * sizeof(Slot);
  auto block =
      std::unique_ptr<std::byte[]>(new std::byte[key_bytes + slot_space]);
  auto* keys = reinterpret_cast<Key*>(block.get());
  void* slot_base = block.get() + key_bytes;
  auto* slots = static_cast<Slot*>(std::align(
      alignof(Slot), new_cap * sizeof(Slot), slot_base, slot_space));
  for (std::size_t i = 0; i < count_; ++i) {
    keys[i] = keys_[index(i)];
    ::new (static_cast<void*>(slots[i].bytes)) Packet(packet(index(i)));
  }
  block_ = std::move(block);
  keys_ = keys;
  slots_ = slots;
  capacity_ = new_cap;
  head_ = 0;
}

}  // namespace rrtcp::net
