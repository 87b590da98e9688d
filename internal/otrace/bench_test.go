package otrace

import "testing"

func BenchmarkStartEndSampled(b *testing.B) {
	t := New(Config{Service: "b", Capacity: 1 << 14, SampleEvery: 1})
	for i := 0; i < b.N; i++ {
		t.Start("x").End()
	}
}
