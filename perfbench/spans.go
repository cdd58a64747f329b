package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a module's public function, recorded by the
// benchmark around the call. Req groups the spans of one API submission:
// its POST and every GET that polled for its alert.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced code paths pay one branch per call site.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	next  uint64
	spans []span // guarded by mu
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// id reserves a span identity, so children can name a parent that has not
// ended yet.
func (r *recorder) id() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// add records a finished span under a reserved id (0 reserves one now).
func (r *recorder) add(id, parent, req uint64, name string, start, end time.Time) {
	if r == nil {
		return
	}
	if id == 0 {
		id = r.id()
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
	r.mu.Unlock()
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// ms returns the durations in milliseconds of the spans with the given
// name, in recording order; a non-zero parent keeps only its children.
func (r *recorder) ms(name string, parent uint64) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && (parent == 0 || s.Parent == parent) {
			out = append(out, float64(s.End-s.Start)/float64(time.Millisecond))
		}
	}
	return out
}

// write stores the spans as JSON lines at path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	fh, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(fh)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			fh.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		fh.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return fh.Close()
}
