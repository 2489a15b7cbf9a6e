package workload

import (
	"testing"
	"time"
)

func BenchmarkSynthesize(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"files=60", Config{Seed: 1, Duration: 6 * time.Hour, NumFiles: 60}},
		{"swim-large", swimLargeShape(1)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Synthesize(bc.cfg)
			}
		})
	}
}

func BenchmarkAccessCounts(b *testing.B) {
	tr := Synthesize(Config{Seed: 1, Duration: 6 * time.Hour, NumFiles: 60})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.AccessCounts()
	}
}
