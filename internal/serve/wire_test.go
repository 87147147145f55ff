package serve

import (
	"math"
	"strings"
	"testing"

	"repro/internal/csi"
	"repro/internal/uplink"
)

func TestHelloRoundTrip(t *testing.T) {
	want := SessionParams{
		Mode:        uplink.StreamCSI,
		BitRate:     1000.0 / 3,
		Start:       1.25,
		PayloadLen:  64,
		Antennas:    3,
		Subchannels: 30,
	}
	line := AppendHello(nil, want)
	got, err := ParseHello(line)
	if err != nil {
		t.Fatalf("ParseHello(%q): %v", line, err)
	}
	if got != want {
		t.Errorf("round trip: got %+v, want %+v", got, want)
	}
	want.Mode = uplink.StreamRSSI
	want.Subchannels = 0
	if got, err = ParseHello(AppendHello(nil, want)); err != nil || got != want {
		t.Errorf("rssi round trip: got %+v, %v", got, err)
	}
}

func TestParseHelloErrors(t *testing.T) {
	bad := []string{
		"",
		"hi wbserve/1 csi 100 1 8 2 4",
		"hello wbserve/2 csi 100 1 8 2 4",
		"hello wbserve/1 dsss 100 1 8 2 4",
		"hello wbserve/1 csi x 1 8 2 4",
		"hello wbserve/1 csi 100 1 8 2",
		"hello wbserve/1 csi 100 1 8 2 4 junk",
		"hello wbserve/1 csi -5 1 8 2 4",
		"hello wbserve/1 csi 100 1 8 2 0", // CSI needs sub-channels
	}
	for _, line := range bad {
		if _, err := ParseHello([]byte(line)); err == nil {
			t.Errorf("ParseHello(%q) accepted", line)
		}
	}
}

func TestMeasurementRoundTripExact(t *testing.T) {
	// Awkward floats must survive the wire byte-exactly; the serving
	// equivalence criterion depends on it.
	src := csi.Measurement{
		Timestamp: 1.0000000000000002,
		RSSI:      []float64{-51.25, math.Pi},
		CSI: [][]float64{
			{1.0 / 3, 17.000000000000004},
			{2.220446049250313e-16, 12345.678901234567},
		},
	}
	line := AppendMeasurement(nil, src)
	got := csi.Measurement{
		RSSI: make([]float64, 2),
		CSI:  [][]float64{make([]float64, 2), make([]float64, 2)},
	}
	if err := ParseMeasurement(line, &got); err != nil {
		t.Fatalf("ParseMeasurement(%q): %v", line, err)
	}
	if got.Timestamp != src.Timestamp {
		t.Errorf("timestamp %v != %v", got.Timestamp, src.Timestamp)
	}
	for a := range src.RSSI {
		if got.RSSI[a] != src.RSSI[a] {
			t.Errorf("rssi[%d] %v != %v", a, got.RSSI[a], src.RSSI[a])
		}
		for k := range src.CSI[a] {
			if got.CSI[a][k] != src.CSI[a][k] {
				t.Errorf("csi[%d][%d] %v != %v", a, k, got.CSI[a][k], src.CSI[a][k])
			}
		}
	}
}

func TestParseMeasurementShapeErrors(t *testing.T) {
	shaped := func() *csi.Measurement {
		return &csi.Measurement{RSSI: make([]float64, 1), CSI: [][]float64{make([]float64, 2)}}
	}
	if err := ParseMeasurement([]byte("m 1 2 3 4"), shaped()); err != nil {
		t.Errorf("exact field count rejected: %v", err)
	}
	if err := ParseMeasurement([]byte("m 1 2 3"), shaped()); err == nil {
		t.Error("short m line accepted")
	}
	if err := ParseMeasurement([]byte("m 1 2 3 4 5"), shaped()); err == nil {
		t.Error("long m line accepted")
	}
	if err := ParseMeasurement([]byte("m 1 2 nope 4"), shaped()); err == nil {
		t.Error("non-numeric field accepted")
	}
	if err := ParseMeasurement([]byte("x 1 2 3 4"), shaped()); err == nil {
		t.Error("non-m line accepted")
	}
}

func TestParseResponseKinds(t *testing.T) {
	r, err := ParseResponse([]byte("ok 42"))
	if err != nil || r.Kind != RespOK || r.ID != 42 {
		t.Errorf("ok: %+v, %v", r, err)
	}
	r, err = ParseResponse([]byte("reject serve: at session capacity"))
	if err != nil || r.Kind != RespReject || !strings.Contains(r.Reason, "capacity") {
		t.Errorf("reject: %+v, %v", r, err)
	}
	r, err = ParseResponse([]byte("bit 7 1 12"))
	if err != nil || r.Kind != RespBit || r.Bit.Index != 7 || !r.Bit.Bit || r.Bit.Measurements != 12 {
		t.Errorf("bit: %+v, %v", r, err)
	}
	r, err = ParseResponse([]byte("done 0110 corr=0.875 mpb=9.5"))
	if err != nil || r.Kind != RespDone || r.Bits != "0110" || r.Corr != 0.875 || r.MPB != 9.5 {
		t.Errorf("done: %+v, %v", r, err)
	}
	r, err = ParseResponse([]byte("done - corr=0 mpb=0"))
	if err != nil || r.Bits != "" {
		t.Errorf("empty done: %+v, %v", r, err)
	}
	r, err = ParseResponse([]byte("error uplink: push 3 timestamp goes backwards"))
	if err != nil || r.Kind != RespError || !strings.Contains(r.Reason, "backwards") {
		t.Errorf("error: %+v, %v", r, err)
	}
	for _, bad := range []string{"", "what 1", "ok", "bit 1", "done 012 corr=1 mpb=1", "done 01 huh=2"} {
		if _, err := ParseResponse([]byte(bad)); err == nil {
			t.Errorf("ParseResponse(%q) accepted", bad)
		}
	}
}

// recordShaped returns a zeroed measurement of the given shape.
func recordShaped(antennas, subchannels int) csi.Measurement {
	m := csi.Measurement{RSSI: make([]float64, antennas), CSI: make([][]float64, antennas)}
	for a := range m.CSI {
		m.CSI[a] = make([]float64, subchannels)
	}
	return m
}

func TestRecordRoundTripBitExact(t *testing.T) {
	// Records carry raw IEEE-754 bits, so even values the text form
	// canonicalizes (NaN payloads, the sign of zero) survive untouched.
	src := csi.Measurement{
		Timestamp: 1.0000000000000002,
		RSSI:      []float64{math.Float64frombits(0x7ff8_0000_dead_beef), math.Copysign(0, -1)},
		CSI: [][]float64{
			{math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64},
			{math.Float64frombits(0x000f_ffff_ffff_ffff), -1.0 / 3, 12345.678901234567},
		},
	}
	rec := AppendRecord(nil, src)
	if len(rec) != RecordSize(2, 3) || len(rec) != 1+8*(1+2+2*3) {
		t.Fatalf("record is %d bytes, RecordSize(2, 3) = %d", len(rec), RecordSize(2, 3))
	}
	if rec[0] != RecordTag {
		t.Fatalf("record starts with %#x, want the tag %#x", rec[0], RecordTag)
	}
	got := recordShaped(2, 3)
	if err := ParseRecord(rec, &got); err != nil {
		t.Fatalf("ParseRecord: %v", err)
	}
	same := func(name string, a, b float64) {
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%s: bits %#016x, want %#016x", name, math.Float64bits(a), math.Float64bits(b))
		}
	}
	same("timestamp", got.Timestamp, src.Timestamp)
	for a := range src.RSSI {
		same("rssi", got.RSSI[a], src.RSSI[a])
		for k := range src.CSI[a] {
			same("csi", got.CSI[a][k], src.CSI[a][k])
		}
	}
}

func TestParseRecordErrors(t *testing.T) {
	src := recordShaped(3, 30)
	rec := AppendRecord(nil, src)
	if len(rec) != 753 {
		t.Fatalf("3×30 record is %d bytes, want 753", len(rec))
	}
	m := recordShaped(3, 30)
	bad := append([]byte(nil), rec...)
	bad[0] = 'm'
	if err := ParseRecord(bad, &m); err == nil {
		t.Error("record with a wrong tag accepted")
	}
	if err := ParseRecord(rec[:len(rec)-1], &m); err == nil {
		t.Error("short record accepted")
	}
	if err := ParseRecord(nil, &m); err == nil {
		t.Error("empty record accepted")
	}
	if err := ParseRecord(append(rec, 0), &m); err == nil {
		t.Error("record with a trailing byte accepted")
	}
	other := recordShaped(2, 30)
	if err := ParseRecord(rec, &other); err == nil {
		t.Error("record accepted into a measurement of another shape")
	}
}
