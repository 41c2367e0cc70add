package serve

import (
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// sinkBuffer is the number of pending events a sink absorbs before a slow
// consumer starts exerting backpressure.
const sinkBuffer = 64

// StreamWriteTimeout is the write timeout of a streaming response: a
// consumer that can neither drain the sink's buffer nor complete one write
// within it stalls the sink.
const StreamWriteTimeout = 10 * time.Second

// SinkOptions tunes a Sink.
type SinkOptions struct {
	// WriteTimeout bounds both one blocked Send (buffer full) and one
	// consumer write; a consumer that violates it stalls the sink. The
	// server passes StreamWriteTimeout.
	WriteTimeout time.Duration
	// SetWriteDeadline, when non-nil, arms the transport's write deadline
	// before each write (http.ResponseController.SetWriteDeadline for
	// HTTP responses), so even a kernel-buffered stalled socket cannot
	// block the pump past WriteTimeout.
	SetWriteDeadline func(time.Time) error
	// Flush, when non-nil, is called after each successful write
	// (http.Flusher for streaming responses).
	Flush func()
	// OnStall, when non-nil, is called exactly once when the sink stalls
	// — the consumer could not keep up. Callers cancel the producing
	// round's context here, which is what bounds the blast radius of a
	// stalled consumer to its own round.
	OnStall func()
}

// Sink pumps encoded events to a streaming consumer through a bounded
// buffer under a write deadline. Producers call Send (cheap, non-blocking
// while the buffer has room); a dedicated pump goroutine owns the writes.
// When the consumer can neither drain the buffer nor complete a write
// within WriteTimeout, the sink stalls: OnStall fires once (the caller
// cancels the round), pending and future events are discarded, and Send
// returns false — so one stalled consumer costs one round, never the
// server.
type Sink struct {
	opts    SinkOptions
	w       io.Writer
	events  chan []byte
	stalled chan struct{} // closed on stall
	done    chan struct{} // closed when the pump exits
	stall   sync.Once
	closed  atomic.Bool
	err     atomic.Pointer[error]
}

// NewSink starts the pump goroutine writing to w. Close must be called to
// reclaim it.
func NewSink(w io.Writer, opts SinkOptions) *Sink {
	s := &Sink{
		opts:    opts,
		w:       faultSinkWrite.Writer(w),
		events:  make(chan []byte, sinkBuffer),
		stalled: make(chan struct{}),
		done:    make(chan struct{}),
	}
	go s.pump()
	return s
}

func (s *Sink) pump() {
	defer close(s.done)
	for payload := range s.events {
		select {
		case <-s.stalled:
			// Drain without writing; producers may still be flushing.
			continue
		default:
		}
		if s.opts.SetWriteDeadline != nil {
			_ = s.opts.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
		}
		if err := faultSinkWrite.Hit(); err != nil {
			s.err.CompareAndSwap(nil, &err)
			s.markStalled()
			continue
		}
		if _, err := s.w.Write(payload); err != nil {
			s.err.CompareAndSwap(nil, &err)
			s.markStalled()
			continue
		}
		if s.opts.Flush != nil {
			s.opts.Flush()
		}
	}
}

func (s *Sink) markStalled() {
	s.stall.Do(func() {
		close(s.stalled)
		if s.opts.OnStall != nil {
			s.opts.OnStall()
		}
	})
}

// Send enqueues one encoded event. It returns immediately while the
// buffer has room; with a full buffer it blocks up to WriteTimeout for
// the consumer to catch up, then stalls the sink. Send reports whether
// the event was accepted — after a stall it returns false without
// blocking, so producers can keep draining their source cheaply.
func (s *Sink) Send(payload []byte) bool {
	if s.closed.Load() {
		return false
	}
	select {
	case <-s.stalled:
		return false
	default:
	}
	select {
	case s.events <- payload:
		return true
	case <-s.stalled:
		return false
	default:
	}
	// Buffer full: the consumer is behind. Give it one write-timeout of
	// grace, then declare the stream stalled.
	timer := time.NewTimer(s.opts.WriteTimeout)
	defer timer.Stop()
	select {
	case s.events <- payload:
		return true
	case <-s.stalled:
		return false
	case <-timer.C:
		s.markStalled()
		return false
	}
}

// Close stops accepting events, waits for the pump to drain what was
// already buffered, and returns the first write error (nil for a clean
// stream). Close must not race Send: the producing goroutine closes the
// sink after its event loop ends.
func (s *Sink) Close() error {
	if s.closed.CompareAndSwap(false, true) {
		close(s.events)
	}
	<-s.done
	if p := s.err.Load(); p != nil {
		return *p
	}
	return nil
}
