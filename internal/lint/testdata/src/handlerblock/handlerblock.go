// Package handlerblock is a miclint test fixture: blocking operations
// reachable from event-handler registrations, non-blocking patterns, and a
// reviewed suppression. The Engine/Host types mirror the simulator's
// registration surface by method name.
package handlerblock

import "sync"

type Engine struct{}

func (e *Engine) At(t int, do func())    {}
func (e *Engine) After(d int, do func()) {}

type Host struct{}

func (h *Host) SetHandler(fn func(port int)) {}

func direct(e *Engine, ch chan int, wg *sync.WaitGroup) {
	e.After(5, func() {
		ch <- 1 // want `channel send can block`
	})
	e.After(5, func() {
		<-ch // want `channel receive can block`
	})
	e.After(5, func() {
		wg.Wait() // want `sync.WaitGroup.Wait blocks`
	})
	e.After(5, func() {
		select { // want `select without a default case`
		case v := <-ch:
			_ = v
		}
	})
}

// nonBlocking is exempt: select with a default case never parks.
func nonBlocking(e *Engine, ch chan int) {
	e.After(5, func() {
		select {
		case v := <-ch:
			_ = v
		default:
		}
	})
}

var done chan int

// helper blocks; it is flagged because register passes it to At.
func helper() {
	done <- 1 // want `channel send can block`
}

func register(e *Engine) {
	e.At(3, helper)
}

type registry struct {
	mu  sync.Mutex
	cbs []func()
}

// fire invokes callbacks while holding mu — re-entry deadlock bait.
func (r *registry) fire(h *Host) {
	h.SetHandler(func(port int) {
		r.mu.Lock()
		for _, cb := range r.cbs {
			cb() // want `callback cb invoked while a mutex is held`
		}
		r.mu.Unlock()
	})
}

// fireUnlocked is exempt: the lock is released before the callbacks run.
func fireUnlocked(r *registry, h *Host) {
	h.SetHandler(func(port int) {
		r.mu.Lock()
		cbs := append([]func(){}, r.cbs...)
		r.mu.Unlock()
		for _, cb := range cbs {
			cb()
		}
	})
}

// suppressed carries a reviewed lint:ignore.
func suppressed(e *Engine, ch chan int) {
	e.After(1, func() {
		// lint:ignore handlerblock channel is buffered to the worst-case burst size
		ch <- 2
	})
}

// Lane and Timer mirror sim.NewLane and sim.NewTimer: their callbacks run
// as engine events, so they are handler roots too.
type Lane[T any] struct{}

func NewLane[T any](e *Engine, fire func(T)) *Lane[T] { return nil }

type Timer struct{}

func NewTimer(e *Engine, fire func()) *Timer { return nil }

func lanes(e *Engine, ch chan int, wg *sync.WaitGroup) {
	NewLane(e, func(v int) {
		ch <- v // want `channel send can block`
	})
	NewLane[int](e, func(v int) {
		<-ch // want `channel receive can block`
	})
	NewTimer(e, func() {
		wg.Wait() // want `sync.WaitGroup.Wait blocks`
	})
}

type conn struct{ acks chan int }

// onTimeout blocks; it is flagged because newConn passes the method value
// to NewTimer.
func (c *conn) onTimeout() {
	c.acks <- 1 // want `channel send can block`
}

func newConn(e *Engine) *conn {
	c := &conn{acks: make(chan int)}
	NewTimer(e, c.onTimeout)
	return c
}

// unregistered is exempt: the function is never installed as a handler.
func unregistered(ch chan int) {
	ch <- 9
}
