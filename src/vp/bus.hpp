// Physical address space of the VP: RAM regions plus memory-mapped devices.
//
// Default edge-SoC memory map (matches the workloads and the examples):
//   0x1000_0000  UART0
//   0x0200_0000  CLINT (mtime / mtimecmp)
//   0x0010_0000  test finisher (exit device)
//   0x8000_0000  RAM (code + data), size configurable
#pragma once

#include <memory>
#include <vector>

#include "common/bits.hpp"
#include "common/status.hpp"
#include "vp/device.hpp"

namespace s4e::vp {

// Result of a bus access: the value plus whether a device (vs RAM) was hit,
// which feeds the timing model's MMIO wait states.
struct BusRead {
  u32 value = 0;
  bool mmio = false;
};

class Bus {
 public:
  // Add a RAM region. Regions must not overlap devices or each other.
  void add_ram(u32 base, u32 size);

  // Map `device` at [base, base+size). The bus keeps ownership.
  void add_device(u32 base, u32 size, std::unique_ptr<Device> device);

  // Data-side accesses (MMIO side effects apply). Misaligned accesses are
  // supported for RAM (QEMU semantics); device accesses must be aligned.
  Result<BusRead> read(u32 address, unsigned size);
  Result<bool> write(u32 address, unsigned size, u32 value);  // -> mmio?

  // Instruction fetch: RAM only (executing from MMIO is an access fault).
  Result<u32> fetch_word(u32 address);
  // 16-bit fetch for RVC parcel decoding.
  Result<u32> fetch_half(u32 address);

  // Direct RAM access without MMIO side effects (loader, plugins, fault
  // injector). Fails if the range is not fully RAM-backed.
  Status ram_read(u32 address, void* buffer, u32 size) const;
  Status ram_write(u32 address, const void* buffer, u32 size);

  // True if [address, address+size) lies fully inside a RAM region.
  bool is_ram(u32 address, u32 size) const noexcept;

  // Zero-copy view of the RAM region containing `address` (empty view if
  // none), for the execution engine's inline load/store fast path. The
  // pointers stay valid for the life of the bus: regions are never removed
  // and their buffers never reallocate. Stores through the view must mark
  // dirtiness exactly like Bus::write does.
  struct RamWindow {
    u8* data = nullptr;
    u64* dirty = nullptr;
    u32 base = 0;
    u32 size = 0;
    void mark_dirty(u32 offset, u32 bytes) noexcept {
      const u32 last = (offset + bytes - 1) / kRamPageBytes;
      for (u32 page = offset / kRamPageBytes; page <= last; ++page) {
        dirty[page >> 6] |= u64{1} << (page & 63);
      }
    }
  };
  RamWindow ram_window(u32 address) noexcept;

  // Advance all devices to cycle `now`.
  void tick(u64 now);

  // Reset every mapped device to power-on state (Machine::reset).
  void reset_devices();

  // --- Snapshot support (see vp/snapshot.hpp).

  // Capture a full image of every RAM region and mark all pages clean, so
  // the next ram_restore() copies back only what execution dirtied after
  // this call.
  void ram_snapshot(std::vector<RamImage>& images);

  // Write back the dirty pages from `images` (captured by ram_snapshot on
  // this bus) and clear the dirty map. Returns the number of pages copied.
  // `restored` (optional) collects the [address, size) extent of each
  // copied page so the caller can invalidate overlapping translation
  // blocks.
  u64 ram_restore(const std::vector<RamImage>& images,
                  std::vector<std::pair<u32, u32>>* restored = nullptr);

  // Total dirty-tracking pages across all RAM regions (the cost a full
  // restore would pay; --snapshot-stats denominator).
  u64 ram_pages() const noexcept;

  // Serialize / restore every mapped device's state, in mapping order.
  void save_device_state(std::vector<std::vector<u8>>& blobs) const;
  void restore_device_state(const std::vector<std::vector<u8>>& blobs);

 private:
  struct RamRegion {
    u32 base = 0;
    std::vector<u8> bytes;
    // One bit per kRamPageBytes page, set on every write path into the
    // region (CPU stores, ram_write); cleared by ram_snapshot/ram_restore.
    std::vector<u64> dirty;
    u32 end() const noexcept { return base + static_cast<u32>(bytes.size()); }
    void mark_dirty(std::size_t offset, u32 size) noexcept {
      const std::size_t last = (offset + size - 1) / kRamPageBytes;
      for (std::size_t page = offset / kRamPageBytes; page <= last; ++page) {
        dirty[page >> 6] |= u64{1} << (page & 63);
      }
    }
  };
  struct DeviceMapping {
    u32 base = 0;
    u32 size = 0;
    std::unique_ptr<Device> device;
  };

  RamRegion* find_ram(u32 address, u32 size) noexcept;
  const RamRegion* find_ram(u32 address, u32 size) const noexcept;
  DeviceMapping* find_device(u32 address) noexcept;

  std::vector<RamRegion> ram_;
  std::vector<DeviceMapping> devices_;
};

}  // namespace s4e::vp
