package uphes

import "testing"

// BenchmarkUPHESProfit is one expected-profit evaluation of the paper's
// problem: the arbitrage schedule simulated over the default 16 scenarios.
func BenchmarkUPHESProfit(b *testing.B) {
	s, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Profit(arbitrage)
	}
}
