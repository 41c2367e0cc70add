package serve

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// lockedBuffer is a goroutine-safe bytes.Buffer.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestSinkDeliversInOrder(t *testing.T) {
	var buf lockedBuffer
	flushes := 0
	s := NewSink(&buf, SinkOptions{WriteTimeout: StreamWriteTimeout, Flush: func() { flushes++ }})
	for _, line := range []string{"a\n", "b\n", "c\n"} {
		if !s.Send([]byte(line)) {
			t.Fatalf("Send(%q) rejected", line)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := buf.String(); got != "a\nb\nc\n" {
		t.Fatalf("wrote %q", got)
	}
	if flushes != 3 {
		t.Fatalf("flushes = %d, want 3", flushes)
	}
}

// blockingWriter blocks every write until released, simulating a stalled
// consumer (full TCP window).
type blockingWriter struct {
	release chan struct{}
	writes  chan struct{}
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	select {
	case w.writes <- struct{}{}:
	default:
	}
	<-w.release
	return len(p), nil
}

func TestSinkStallsSlowConsumerAndCancelsOnlyItsRound(t *testing.T) {
	w := &blockingWriter{release: make(chan struct{}), writes: make(chan struct{}, 1)}
	stalled := make(chan struct{})
	s := NewSink(w, SinkOptions{
		WriteTimeout: 20 * time.Millisecond,
		OnStall:      func() { close(stalled) },
	})
	// First event reaches the (blocking) writer; the next sinkBuffer fill
	// the buffer; one more must block and then stall the sink.
	deadline := time.After(5 * time.Second)
	for i := 0; i < sinkBuffer+2; i++ {
		if !s.Send([]byte("x\n")) {
			break
		}
		select {
		case <-deadline:
			t.Fatal("sink never stalled")
		default:
		}
	}
	select {
	case <-stalled:
	case <-time.After(5 * time.Second):
		t.Fatal("OnStall not called")
	}
	select {
	case <-s.stalled:
	default:
		t.Fatal("the stalled channel is open after a stall")
	}
	// After the stall, sends are cheap rejections — the producer can
	// drain its source without blocking.
	start := time.Now()
	if s.Send([]byte("y\n")) {
		t.Fatal("Send accepted after stall")
	}
	if time.Since(start) > time.Second {
		t.Fatalf("post-stall Send blocked %v", time.Since(start))
	}
	close(w.release) // unblock the pump so Close can reclaim it
	s.Close()
}

// errWriter fails after the first write.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n > 1 {
		return 0, errors.New("broken pipe")
	}
	return len(p), nil
}

func TestSinkReportsWriteError(t *testing.T) {
	s := NewSink(&errWriter{}, SinkOptions{WriteTimeout: 50 * time.Millisecond})
	s.Send([]byte("ok\n"))
	s.Send([]byte("fails\n"))
	err := s.Close()
	if err == nil || !strings.Contains(err.Error(), "broken pipe") {
		t.Fatalf("Close err = %v, want broken pipe", err)
	}
	select {
	case <-s.stalled:
	default:
		t.Fatal("write error must stall the sink")
	}
}

func TestSinkSetWriteDeadlineIsArmedPerWrite(t *testing.T) {
	var buf lockedBuffer
	var mu sync.Mutex
	calls := 0
	s := NewSink(&buf, SinkOptions{
		WriteTimeout: StreamWriteTimeout,
		SetWriteDeadline: func(time.Time) error {
			mu.Lock()
			calls++
			mu.Unlock()
			return nil
		},
	})
	s.Send([]byte("a"))
	s.Send([]byte("b"))
	s.Close()
	mu.Lock()
	defer mu.Unlock()
	if calls != 2 {
		t.Fatalf("SetWriteDeadline calls = %d, want 2", calls)
	}
}

func TestSinkCloseDrainsBufferedEvents(t *testing.T) {
	var buf lockedBuffer
	var w io.Writer = &buf
	s := NewSink(w, SinkOptions{WriteTimeout: StreamWriteTimeout})
	for i := 0; i < 5; i++ {
		s.Send([]byte("e"))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := buf.String(); got != "eeeee" {
		t.Fatalf("drained %q, want eeeee", got)
	}
}
