package syncsvc

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"
)

// call is the state every client side of a sync call shares: the lock,
// the terminal error, the done channel, and an optional continuation run
// once the call settles. Pull, WatermarkQuery, SnapMetaQuery and
// SnapChunkPull embed it and add only their frame handling and their
// end-of-stream check; Done and Wait are promoted from here.
type call struct {
	mu     sync.Mutex
	err    error
	done   bool
	notify chan struct{}
	// then runs once, after the call settled, outside the lock.
	then func()
}

// newCall returns a fresh call; embed it with a composite literal.
func newCall() call { return call{notify: make(chan struct{})} }

// frame runs one frame's handling under the lock and latches its error.
// Frames after the first error, or after the call settled or was
// abandoned, are drained silently.
func (c *call) frame(handle func() error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done || c.err != nil {
		return
	}
	c.err = handle()
}

// settle records the call's terminal state exactly once: the transport's
// error (re-sentinelled), or else the sink's own end-of-stream check
// (nil when the stream was complete). It then wakes Wait and runs the
// continuation.
func (c *call) settle(err error, check func() error) {
	c.mu.Lock()
	if c.done {
		c.mu.Unlock()
		return
	}
	if c.err == nil && err != nil {
		c.err = normalizeRemoteErr(err)
	}
	if c.err == nil {
		c.err = check()
	}
	c.done = true
	close(c.notify)
	then := c.then
	c.mu.Unlock()
	if then != nil {
		then()
	}
}

// Done reports whether the call has terminated (cleanly or not) — the
// condition simulator-driven clients run the network until.
func (c *call) Done() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done
}

// Wait blocks until the call terminates or the timeout passes,
// reporting false on timeout — for real-transport clients.
func (c *call) Wait(timeout time.Duration) bool {
	select {
	case <-c.notify:
		return true
	case <-time.After(timeout):
		return false
	}
}

// normalizeRemoteErr re-sentinels errors that crossed a transport as
// text: tcpnet conveys a handler's Close error to the caller as a string
// frame, so errors.Is(err, ErrThrottled) — the signal to back off and
// try another peer — must survive the round trip.
func normalizeRemoteErr(err error) error {
	if err == nil || errors.Is(err, ErrThrottled) {
		return err
	}
	if strings.Contains(err.Error(), ErrThrottled.Error()) {
		return fmt.Errorf("%w (remote)", ErrThrottled)
	}
	return err
}
