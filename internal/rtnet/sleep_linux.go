//go:build linux

package rtnet

import (
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"lintime/internal/simtime"
)

// sleeper is the scheduler's interruptible sleep: a timed futex wait on
// one word, whose timeout the kernel takes in nanoseconds. A time.Timer
// would park the thread in the runtime's epoll_wait when every P is idle,
// whose timeout is whole milliseconds: every deadline met 0–1 ms late. It
// owns no descriptor and no goroutine, so there is nothing to release.
type sleeper struct {
	poked uint32 // 1 after a poke no wait has consumed; a plain word because the kernel takes its address
}

func newSleeper() sleeper { return sleeper{} }

// FUTEX_WAIT and FUTEX_WAKE, each with FUTEX_PRIVATE_FLAG.
const futexWaitPrivate, futexWakePrivate = 0 | 128, 1 | 128

// wait blocks until deadline on the cluster's timeline (forever when it
// is simtime.Infinity) or until a poke, whichever is first; a poke made
// since the previous wait returned ends it at once. The remaining time is
// taken from the clock immediately before each block, and a deadline
// already behind means no sleep at all. Scheduler goroutine only.
func (c *Cluster) wait(deadline simtime.Time) {
	for atomic.LoadUint32(&c.sleep.poked) == 0 {
		var timeout *syscall.Timespec
		if deadline != simtime.Infinity {
			left := time.Duration(deadline - c.elapsed())
			if left <= 0 {
				break
			}
			ts := syscall.NsecToTimespec(int64(left))
			timeout = &ts
		}
		// Every return is handled by looking again: woken, timed out,
		// interrupted by a signal (EINTR), or the word already 1 (EAGAIN).
		syscall.Syscall6(syscall.SYS_FUTEX, uintptr(unsafe.Pointer(&c.sleep.poked)),
			futexWaitPrivate, 0, uintptr(unsafe.Pointer(timeout)), 0, 0)
	}
	atomic.StoreUint32(&c.sleep.poked, 0)
}

// poke ends the scheduler's current wait, or its next one if it is not in
// one. Any goroutine; harmless before Start and after Stop.
func (c *Cluster) poke() {
	if atomic.SwapUint32(&c.sleep.poked, 1) == 0 {
		syscall.Syscall6(syscall.SYS_FUTEX, uintptr(unsafe.Pointer(&c.sleep.poked)),
			futexWakePrivate, 1, 0, 0, 0)
	}
}
