package repro

// One benchmark per table/figure in the paper's evaluation. Each iteration
// regenerates the figure's data series at reduced scale (the full-scale
// sweep is `go run ./cmd/wbbench`); the generated table is printed once
// under -v so the series the paper reports is visible from the bench run.
//
// Run with:
//
//	go test -bench=. -benchmem

import (
	"sync"
	"testing"

	"repro/internal/eval"
	"repro/internal/units"
	"repro/internal/uplink"
)

// benchOpt is the reduced per-iteration scale.
var benchOpt = eval.Options{Seed: 1, Trials: 2, PayloadLen: 45}

// printOnce logs each figure's table a single time across the whole bench
// run so the output stays readable.
var printOnce sync.Map

func logTable(b *testing.B, id string, t *eval.Table, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	if _, loaded := printOnce.LoadOrStore(id, true); !loaded {
		b.Log("\n" + t.String())
	}
}

func BenchmarkFig03RawCSITrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, t, err := eval.RawCSITrace(units.Centimeters(5), 2000, 1)
		logTable(b, "fig3", t, err)
	}
}

func BenchmarkFig04NormalizedPDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := eval.NormalizedPDF(6000, 1)
		logTable(b, "fig4", t, err)
	}
}

func BenchmarkFig05GoodSubchannels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := eval.GoodSubchannels(benchOpt)
		logTable(b, "fig5", t, err)
	}
}

func BenchmarkFig06RawCSIFar(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, t, err := eval.RawCSITrace(1, 2000, 2)
		logTable(b, "fig6", t, err)
	}
}

func BenchmarkFig10aUplinkBERCSI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := eval.UplinkBERvsDistance(uplink.StreamCSI, benchOpt)
		logTable(b, "fig10a", t, err)
	}
}

func BenchmarkFig10bUplinkBERRSSI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := eval.UplinkBERvsDistance(uplink.StreamRSSI, benchOpt)
		logTable(b, "fig10b", t, err)
	}
}

func BenchmarkFig11FrequencyDiversity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := eval.FrequencyDiversity(benchOpt)
		logTable(b, "fig11", t, err)
	}
}

func BenchmarkFig12RateVsHelperRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := eval.RateVsHelperRate(benchOpt)
		logTable(b, "fig12", t, err)
	}
}

func BenchmarkFig14HelperLocations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := eval.HelperLocations(eval.Options{Seed: 1, Trials: 2, PayloadLen: 64})
		logTable(b, "fig14", t, err)
	}
}

func BenchmarkFig15AmbientTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := eval.AmbientTraffic(eval.Options{Seed: 1, Trials: 1, PayloadLen: 45})
		logTable(b, "fig15", t, err)
	}
}

func BenchmarkFig16BeaconOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := eval.BeaconOnly(eval.Options{Seed: 1, Trials: 1, PayloadLen: 20})
		logTable(b, "fig16", t, err)
	}
}

func BenchmarkFig17DownlinkBER(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := eval.DownlinkBER(3000, 1, 0)
		logTable(b, "fig17", t, err)
	}
}

func BenchmarkFig18FalsePositives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := eval.FalsePositives(0.02, 1, 0)
		logTable(b, "fig18", t, err)
	}
}

func BenchmarkFig19WiFiImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := eval.WiFiImpact(units.Centimeters(5), 10, 1, 0)
		logTable(b, "fig19a", t, err)
		t, err = eval.WiFiImpact(units.Centimeters(30), 10, 1, 0)
		logTable(b, "fig19b", t, err)
	}
}

func BenchmarkFig20CorrelationRange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := eval.CorrelationRange(eval.Options{Seed: 1, Trials: 2, PayloadLen: 12})
		logTable(b, "fig20", t, err)
	}
}

func BenchmarkAblationCombining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := eval.CombiningAblation(benchOpt)
		logTable(b, "abl-combine", t, err)
	}
}

func BenchmarkAblationDecision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := eval.DecisionAblation(benchOpt)
		logTable(b, "abl-decide", t, err)
	}
}

func BenchmarkAblationBinning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := eval.BinningAblation(benchOpt)
		logTable(b, "abl-bin", t, err)
	}
}

func BenchmarkAblationThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := eval.ThresholdAblation(3000, 1, 0)
		logTable(b, "abl-thresh", t, err)
	}
}

func BenchmarkInventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := eval.MultiTagInventory(benchOpt)
		logTable(b, "inventory", t, err)
	}
}

func BenchmarkChannelSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := eval.ChannelSweep(benchOpt)
		logTable(b, "channels", t, err)
	}
}

func BenchmarkAckDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := eval.AckDetection(benchOpt)
		logTable(b, "ack", t, err)
	}
}

func BenchmarkDutyCycledSensor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := eval.DutyCycledSensor(1)
		logTable(b, "duty", t, err)
	}
}

func BenchmarkMACValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := eval.MACValidation(1, 1)
		logTable(b, "mac", t, err)
	}
}

func BenchmarkPowerBudget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := eval.PowerBudget()
		logTable(b, "power", t, nil)
	}
}

// The serial/parallel pair below measures the trial-engine speedup on the
// same uplink sweep (Fig. 10a at reduced scale). On a multi-core machine
// the parallel run should approach a GOMAXPROCS-fold improvement; the
// tables are bit-identical either way.

func uplinkSweepOpt(workers int) eval.Options {
	return eval.Options{Seed: 1, Trials: 4, PayloadLen: 45, Workers: workers}
}

func BenchmarkUplinkSweepSerial(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := eval.UplinkBERvsDistance(uplink.StreamCSI, uplinkSweepOpt(1))
		logTable(b, "sweep-serial", t, err)
	}
}

func BenchmarkUplinkSweepParallel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := eval.UplinkBERvsDistance(uplink.StreamCSI, uplinkSweepOpt(0))
		logTable(b, "sweep-parallel", t, err)
	}
}
