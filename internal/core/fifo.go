package core

// fifo is a slice-backed queue that keeps its array: pops advance a head
// index, and a push that finds the array full first slides the live
// elements to the front. A queue that drains, or merely stops growing,
// therefore stops allocating at its high-water mark — unlike the
// `q = q[1:]` idiom, whose every append past the shrinking capacity
// copies the queue into a fresh array.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// peek returns the oldest element; the queue must be non-empty.
func (q *fifo[T]) peek() T { return q.buf[q.head] }

func (q *fifo[T]) push(x T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, x)
}

// pop removes and returns the oldest element; the queue must be non-empty.
func (q *fifo[T]) pop() T {
	x := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return x
}
