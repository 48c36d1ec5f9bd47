package sim

// Ring is a FIFO queue in a circular buffer. It doubles when full and
// never shrinks, so its capacity stays at most twice its peak length and a
// queue that never drains does not keep growing the way an appended slice
// does. The zero value is an empty ring.
type Ring[T any] struct {
	buf  []T // len is zero or a power of two
	head int
	n    int
}

// Len reports how many values the ring holds.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v at the back.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		buf := make([]T, max(2, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Front returns the oldest value. The ring must not be empty.
func (r *Ring[T]) Front() *T { return &r.buf[r.head] }

// Back returns the newest value. The ring must not be empty.
func (r *Ring[T]) Back() *T { return &r.buf[(r.head+r.n-1)&(len(r.buf)-1)] }

// PopFront removes and returns the oldest value. The ring must not be
// empty.
func (r *Ring[T]) PopFront() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero // release references to the GC
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}
