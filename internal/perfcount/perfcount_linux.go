//go:build linux && (amd64 || arm64)

// Raw perf_event_open plumbing: syscall + ioctl + read, no cgo. The attr
// struct is declared at PERF_ATTR_SIZE_VER8 (136 bytes); kernels too old for
// that size fail E2BIG, which the degradation contract maps to "event
// dropped" like any other refusal.

package perfcount

import (
	"encoding/binary"
	"syscall"
	"unsafe"
)

// eventHandle is the event's file descriptor on Linux.
type eventHandle = int

// perfEventAttr mirrors struct perf_event_attr (linux/perf_event.h) at
// size VER8.
type perfEventAttr struct {
	typ              uint32
	size             uint32
	config           uint64
	sample           uint64 // sample_period / sample_freq
	sampleType       uint64
	readFormat       uint64
	bits             uint64 // the bitfield word: disabled, inherit, ...
	wakeup           uint32 // wakeup_events / wakeup_watermark
	bpType           uint32
	bpAddrOrConfig1  uint64
	bpLenOrConfig2   uint64
	branchSampleType uint64
	sampleRegsUser   uint64
	sampleStackUser  uint32
	clockID          int32
	sampleRegsIntr   uint64
	auxWatermark     uint32
	sampleMaxStack   uint16
	_                uint16
	auxSampleSize    uint32
	_                uint32
	sigData          uint64
	config3          uint64
}

const (
	attrSize = uint32(unsafe.Sizeof(perfEventAttr{})) // 136, VER8

	// bits: disabled | inherit | exclude_kernel | exclude_hv. Inherit so
	// worker threads created after the open are counted; exclude_kernel/hv
	// keeps the request within the unprivileged-friendlier envelope.
	// Inherit is why events are opened individually instead of as a kernel
	// fd group: inherit is incompatible with PERF_FORMAT_GROUP reads.
	attrBits = uint64(1 | 1<<1 | 1<<5 | 1<<6)

	// readFormat: value + TOTAL_TIME_ENABLED + TOTAL_TIME_RUNNING, the
	// triple scaledDelta needs to correct for counter multiplexing.
	attrReadFormat = uint64(1 | 2)

	ioctlEnable = 0x2400 // PERF_EVENT_IOC_ENABLE

	flagFdCloexec = 1 << 3 // PERF_FLAG_FD_CLOEXEC
)

// openEvent opens one counter over the whole process (pid 0, any CPU),
// disabled. Any kernel refusal — no PMU (ENOENT/ENODEV), no privilege
// (EACCES/EPERM under perf_event_paranoid), unknown attr size (E2BIG) — is
// returned for Open to drop the event.
func openEvent(ev Event) (eventHandle, error) {
	attr := perfEventAttr{
		typ:        uint32(ev.Type),
		size:       attrSize,
		config:     ev.Config,
		readFormat: attrReadFormat,
		bits:       attrBits,
	}
	fd, _, errno := syscall.Syscall6(sysPerfEventOpen,
		uintptr(unsafe.Pointer(&attr)),
		0,           // pid: this process
		^uintptr(0), // cpu: -1, any
		^uintptr(0), // group_fd: -1, standalone (see attrBits)
		flagFdCloexec, 0)
	if errno != 0 {
		return -1, errno
	}
	return int(fd), nil
}

func enableEvent(fd eventHandle) error {
	_, _, errno := syscall.Syscall(syscall.SYS_IOCTL, uintptr(fd), ioctlEnable, 0)
	if errno != 0 {
		return errno
	}
	return nil
}

// readEvent reads the (value, time_enabled, time_running) triple.
func readEvent(fd eventHandle) (sample, error) {
	var buf [24]byte
	n, err := syscall.Read(fd, buf[:])
	if err != nil {
		return sample{}, err
	}
	var s sample
	if n >= 8 {
		s.value = binary.LittleEndian.Uint64(buf[0:8])
	}
	if n >= 16 {
		s.enabled = binary.LittleEndian.Uint64(buf[8:16])
	}
	if n >= 24 {
		s.running = binary.LittleEndian.Uint64(buf[16:24])
	}
	return s, nil
}

func closeEvent(fd eventHandle) { syscall.Close(fd) }
