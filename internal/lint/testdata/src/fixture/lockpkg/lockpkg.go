// Package lockpkg exercises lock-discipline: blocking operations and
// callbacks inside critical sections, and the //abmm:guards field
// contract (reads need the lock, writes need the write lock, freshly
// constructed values are exempt).
package lockpkg

import (
	"sync"
	"time"
)

// Box shares a map and a channel across goroutines.
type Box struct {
	mu sync.RWMutex
	// windows is a guarded map: only touched under mu.
	//abmm:guards mu
	windows map[int]int
	ch      chan int
}

// SleepUnderLock parks the critical section.
func (b *Box) SleepUnderLock() {
	b.mu.Lock()
	time.Sleep(time.Millisecond) // want lock-discipline
	b.mu.Unlock()
}

// SendUnderLock performs a channel op while mu is (defer-)held.
func (b *Box) SendUnderLock(v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ch <- v // want lock-discipline
}

// ReceiveUnderLock blocks on a receive inside the section.
func (b *Box) ReceiveUnderLock() int {
	b.mu.Lock()
	v := <-b.ch // want lock-discipline
	b.mu.Unlock()
	return v
}

// CallbackUnderLock runs arbitrary caller code under the lock.
func (b *Box) CallbackUnderLock(fn func()) {
	b.mu.Lock()
	fn() // want lock-discipline
	b.mu.Unlock()
}

// UnguardedWrite touches the guarded map with no lock at all.
func (b *Box) UnguardedWrite(k, v int) {
	b.windows[k] = v // want lock-discipline
}

// ReadLockWrite mutates under the read lock only.
func (b *Box) ReadLockWrite(k, v int) {
	b.mu.RLock()
	b.windows[k] = v // want lock-discipline
	b.mu.RUnlock()
}

// LockedWrite holds the write lock across the write: clean.
func (b *Box) LockedWrite(k, v int) {
	b.mu.Lock()
	b.windows[k] = v
	b.mu.Unlock()
}

// LockedRead reads under the read lock, released by defer: clean.
func (b *Box) LockedRead(k int) int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.windows[k]
}

// DeleteLocked removes a key with the write lock held: clean.
func (b *Box) DeleteLocked(k int) {
	b.mu.Lock()
	delete(b.windows, k)
	b.mu.Unlock()
}

// SendOutsideLock stages under the lock and sends after releasing it:
// the channel op near-miss.
func (b *Box) SendOutsideLock(v int) {
	b.mu.Lock()
	b.windows[0] = v
	b.mu.Unlock()
	b.ch <- v
}

// CallAfterUnlock invokes the callback after leaving the section: the
// callback near-miss.
func (b *Box) CallAfterUnlock(fn func()) {
	b.mu.Lock()
	b.windows[1] = 1
	b.mu.Unlock()
	fn()
}

// NewBox writes guarded fields before the value is shared — the
// constructor exemption.
func NewBox() *Box {
	b := &Box{ch: make(chan int, 1)}
	b.windows = make(map[int]int)
	return b
}

// StaticCallUnderLock calls a static module function while holding
// the lock: not a dynamic callback, not flagged.
func (b *Box) StaticCallUnderLock(k int) int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return bound(b.windows[k])
}

func bound(v int) int {
	if v < 0 {
		return 0
	}
	return v
}
