//go:build !linux || !(amd64 || arm64)

// Stub implementation for platforms without perf_event_open (or without a
// vetted syscall number): every open fails, so Open reports ErrUnsupported
// and callers take their documented no-counters path.

package perfcount

type eventHandle = int

func openEvent(Event) (eventHandle, error)  { return -1, ErrUnsupported }
func enableEvent(eventHandle) error         { return ErrUnsupported }
func readEvent(eventHandle) (sample, error) { return sample{}, ErrUnsupported }
func closeEvent(eventHandle)                {}
