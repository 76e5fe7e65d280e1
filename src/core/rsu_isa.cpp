#include "core/rsu_isa.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>

namespace rsu::core {

uint64_t
packNeighbors(const std::array<Label, 4> &labels,
              const std::array<bool, 4> &valid)
{
    uint64_t word = 0;
    for (int i = 0; i < 4; ++i) {
        word |= static_cast<uint64_t>(labels[i] & kLabelMask)
                << (6 * i);
        if (!valid[i])
            word |= 1ULL << (24 + i);
    }
    return word;
}

uint64_t
packSingletonD(const uint8_t *values, int count)
{
    if (count < 1 || count > 8)
        throw std::invalid_argument("packSingletonD: count must be "
                                    "1..8");
    uint64_t word = 0;
    for (int i = 0; i < count; ++i)
        word |= static_cast<uint64_t>(values[i] & kLabelMask)
                << (8 * i);
    // Unused byte lanes replicate the last value so that a short
    // write is indistinguishable from a padded one.
    for (int i = count; i < 8; ++i)
        word |= static_cast<uint64_t>(values[count - 1] & kLabelMask)
                << (8 * i);
    return word;
}

RsuDevice::RsuDevice(RsuG &unit) : unit_(unit)
{
    staged_.neighbors = {0, 0, 0, 0};
}

void
RsuDevice::write(RsuReg reg, uint64_t value)
{
    ++instructions_;
    auto &lut = unit_.intensityMap();
    switch (reg) {
      case RsuReg::MapLo: {
        const int half = lut.words() / 2;
        lut.writeWord(map_lo_ptr_, value);
        map_lo_ptr_ = (map_lo_ptr_ + 1) % std::max(half, 1);
        break;
      }
      case RsuReg::MapHi: {
        const int half = lut.words() / 2;
        lut.writeWord(half + map_hi_ptr_, value);
        map_hi_ptr_ = (map_hi_ptr_ + 1) % std::max(half, 1);
        break;
      }
      case RsuReg::DownCounter:
        unit_.setNumLabels(static_cast<int>(value & kLabelMask) + 1);
        data2_fifo_.clear();
        map_lo_ptr_ = 0;
        map_hi_ptr_ = 0;
        break;
      case RsuReg::Neighbors:
        for (int i = 0; i < 4; ++i) {
            staged_.neighbors[i] =
                static_cast<Label>((value >> (6 * i)) & kLabelMask);
            staged_.neighbor_valid[i] =
                ((value >> (24 + i)) & 1) == 0;
        }
        break;
      case RsuReg::SingletonA:
        staged_.data1 = static_cast<uint8_t>(value & kLabelMask);
        break;
      case RsuReg::SingletonD:
        for (int i = 0; i < 8; ++i) {
            if (static_cast<int>(data2_fifo_.size()) >= kMaxLabels)
                break;
            data2_fifo_.push_back(
                static_cast<uint8_t>((value >> (8 * i)) & kLabelMask));
        }
        break;
      case RsuReg::EnergyOffset:
        staged_.energy_offset = static_cast<uint8_t>(value & 0xff);
        break;
      default:
        throw std::invalid_argument("RsuDevice: bad register");
    }
}

RsuDevice::ReadResult
RsuDevice::readResult()
{
    ++instructions_;
    const int m = unit_.numLabels();

    // Expand the staged data2 stream to one value per candidate:
    // missing entries reuse the last written value; an empty stream
    // falls back to SINGLETON_A's counterpart semantics (data2 = 0).
    std::array<uint8_t, kMaxLabels> data2{};
    if (!data2_fifo_.empty()) {
        for (int i = 0; i < m; ++i) {
            const size_t idx = std::min(
                static_cast<size_t>(i), data2_fifo_.size() - 1);
            data2[i] = data2_fifo_[idx];
        }
    }

    const Label label = unit_.sample(staged_, data2.data());
    // The read is the idempotent restart boundary: evaluation state
    // drains completely; only per-application state persists.
    data2_fifo_.clear();

    return {label, unit_.latencyCycles()};
}

RsuContext
RsuDevice::saveContext() const
{
    RsuContext ctx;
    const auto &lut = unit_.intensityMap();
    ctx.map_words.resize(lut.words());
    for (int w = 0; w < lut.words(); ++w)
        ctx.map_words[w] = lut.readWord(w);
    ctx.down_counter = static_cast<uint8_t>(unit_.numLabels() - 1);
    ctx.temperature = unit_.temperature();
    return ctx;
}

void
RsuDevice::restoreContext(const RsuContext &ctx)
{
    auto &lut = unit_.intensityMap();
    if (static_cast<int>(ctx.map_words.size()) != lut.words())
        throw std::invalid_argument("RsuDevice: context map size "
                                    "mismatch");
    for (int w = 0; w < lut.words(); ++w)
        lut.writeWord(w, ctx.map_words[w]);
    unit_.setNumLabels(static_cast<int>(ctx.down_counter) + 1);
    data2_fifo_.clear();
    map_lo_ptr_ = 0;
    map_hi_ptr_ = 0;
}

} // namespace rsu::core
