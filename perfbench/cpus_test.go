package main

import (
	"reflect"
	"testing"
)

func TestCPUListRoundTrip(t *testing.T) {
	for _, cpus := range [][]int{{1}, {1, 2, 3}, {0, 63, 64, 1023}} {
		s := setOf(cpus)
		if got := s.list(); !reflect.DeepEqual(got, cpus) {
			t.Errorf("setOf(%v).list() = %v", cpus, got)
		}
		got, err := parseCPUs(formatCPUs(cpus))
		if err != nil || !reflect.DeepEqual(got, cpus) {
			t.Errorf("parseCPUs(formatCPUs(%v)) = %v, %v", cpus, got, err)
		}
	}
	if got, err := parseCPUs(""); err != nil || got != nil {
		t.Errorf(`parseCPUs("") = %v, %v; want nil, nil`, got, err)
	}
	for _, bad := range []string{"x", "1,", "-1", "1024"} {
		if _, err := parseCPUs(bad); err == nil {
			t.Errorf("parseCPUs(%q) accepted", bad)
		}
	}
}
