package bulkbench

import "testing"

// BenchmarkBulk runs every tracked bulk scenario as a sub-benchmark:
//
//	go test -bench=Bulk -benchmem ./internal/bulkbench
//
// `make check` runs it with -benchtime=1x as a smoke test; `make bench`
// runs it at the default benchtime.
func BenchmarkBulk(b *testing.B) {
	for _, s := range Scenarios() {
		b.Run(s.Name, s.Run)
	}
}
