package metrics

import (
	"encoding/binary"
	"slices"
	"testing"
)

// sampleBytes encodes samples the way FuzzHistogramQuantile decodes them:
// one little-endian uint64 per 8 bytes.
func sampleBytes(vs ...uint64) []byte {
	b := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// wantQuantile is the percentile rule by brute force: the bucket bound of
// the ceil(n·pct/100)-th smallest sample, 0 with no samples.
func wantQuantile(samples []uint64, pct uint64) uint64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	rank := (uint64(len(sorted))*pct + 99) / 100
	return BucketBound(bucketOf(sorted[rank-1]))
}

// FuzzHistogramQuantile checks HistogramValue.Quantile against sorting, on
// a whole histogram, whose percentiles are capped at its largest sample,
// and on the Sub delta of two of its prefixes, which has no Max and so no
// cap. pct maps 1..100 to itself and wraps anything else into that range;
// cut picks the prefix the delta is taken against.
func FuzzHistogramQuantile(f *testing.F) {
	dwell := sampleBytes(0, 1, 2, 3, 100, 1000)
	f.Add(uint8(50), uint16(0), dwell)  // 3rd sample (2) -> bucket [2,3]
	f.Add(uint8(100), uint16(0), dwell) // 1000 -> bucket [512,1023]
	f.Add(uint8(90), uint16(0), []byte(nil))
	f.Add(uint8(99), uint16(3), dwell)
	f.Add(uint8(90), uint16(0), sampleBytes(15, 15, 16, 19)) // bucket [16,31] capped at 19
	f.Fuzz(func(t *testing.T, p uint8, cut uint16, data []byte) {
		pct := uint64(p-1)%100 + 1
		samples := make([]uint64, len(data)/8)
		for i := range samples {
			samples[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		k := int(cut) % (len(samples) + 1)
		var prefix, all Histogram
		for i, v := range samples {
			if i < k {
				prefix.Observe(v)
			}
			all.Observe(v)
		}
		whole := all.Value()
		want := wantQuantile(samples, pct)
		if len(samples) > 0 && slices.Max(samples) > 0 {
			want = min(want, slices.Max(samples))
		}
		if got := whole.Quantile(pct); got != want {
			t.Fatalf("p%d of %v = %d, want %d", pct, samples, got, want)
		}
		d := whole.Sub(prefix.Value())
		if d.Count != uint64(len(samples)-k) {
			t.Fatalf("delta count = %d, want %d", d.Count, len(samples)-k)
		}
		if got, want := d.Quantile(pct), wantQuantile(samples[k:], pct); got != want {
			t.Fatalf("p%d of delta %v = %d, want %d", pct, samples[k:], got, want)
		}
	})
}
