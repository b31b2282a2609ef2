package main

import (
	"testing"
	"time"
)

func TestPacerSleepsUntilDue(t *testing.T) {
	p, err := newPacer()
	if err != nil {
		t.Fatal(err)
	}
	defer p.f.Close()
	for _, d := range []time.Duration{-time.Millisecond, 0, 200 * time.Microsecond, 5 * time.Millisecond} {
		due := time.Now().Add(d)
		p.sleepUntil(due)
		if late := time.Since(due); late < 0 {
			t.Errorf("sleepUntil(now%+v) returned %v early", d, -late)
		} else if late > time.Second {
			t.Errorf("sleepUntil(now%+v) returned %v late", d, late)
		}
	}
}
