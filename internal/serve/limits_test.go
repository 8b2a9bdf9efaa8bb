package serve

import (
	"testing"
	"time"
)

// TestRequestTimeoutClamp: timeoutMs 0 takes the server default, a
// shorter one is kept, and a longer one is cut to the default unless the
// default is disabled; a negative one is refused.
func TestRequestTimeoutClamp(t *testing.T) {
	for _, c := range []struct {
		def       time.Duration // Config.DefaultTimeout before defaults apply
		timeoutMs int
		want      time.Duration
	}{
		{0, 0, 30 * time.Second},
		{0, 1500, 1500 * time.Millisecond},
		{0, 30000, 30 * time.Second},
		{0, 600000, 30 * time.Second},
		{100 * time.Millisecond, 99, 99 * time.Millisecond},
		{100 * time.Millisecond, 101, 100 * time.Millisecond},
		{1500 * time.Microsecond, 2, 1500 * time.Microsecond},
		{-1, 0, 0},
		{-1, 600000, 600 * time.Second},
	} {
		cfg := Config{DefaultTimeout: c.def}
		cfg.applyDefaults()
		s := &Server{cfg: cfg}
		got, err := s.requestTimeout(c.timeoutMs)
		if err != nil || got != c.want {
			t.Errorf("default %v, timeoutMs %d: got (%v, %v), want %v", c.def, c.timeoutMs, got, err, c.want)
		}
		if _, err := s.requestTimeout(-1); err == nil {
			t.Errorf("default %v: timeoutMs -1 accepted", c.def)
		}
	}
}
