package main

import (
	"reflect"
	"testing"
)

func TestParseCounts(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int
		ok   bool
	}{
		{"10,20,30", []int{10, 20, 30}, true},
		{"7", []int{7}, true},
		{"10, 20", []int{10, 20}, true},
		{"10,x,30", nil, false},
		{"10x", nil, false},
		{"10,,30", nil, false},
		{"", nil, false},
		{"0", nil, false},
		{"10,-5", nil, false},
		{"1.5", nil, false},
	} {
		got, err := parseCounts(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("parseCounts(%q) error = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseCounts(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
