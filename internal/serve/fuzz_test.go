package serve_test

import (
	"bytes"
	"testing"

	"repro/internal/csi"
	"repro/internal/serve"
)

// FuzzWireProtocol throws arbitrary lines and records at every
// wbserve/1 parser the TCP front end exposes to the network. Two
// properties: no input may panic a parser, and any request a parser
// accepts must survive a format→reparse round trip — ParseHello/
// ParseResume reproduce the same values, ParseMeasurement reaches a
// canonical form that re-formats byte-identically (floats travel as
// strconv 'g'/-1, so NaN-safe byte comparison is the right equality),
// and ParseRecord re-encodes to the identical bytes (records carry raw
// float bits, so there is no canonical form to reach: every accepted
// record already is one). Record inputs are the raw bytes, and also the
// tag followed by the bytes cut or zero-padded to the record size, so
// arbitrary bit patterns reach the decode. The checked-in corpus under
// testdata/fuzz seeds the malformed shapes that found real bugs
// (non-finite hello floats admitted past a "<= 0" check — see
// SessionParams.Validate).
func FuzzWireProtocol(f *testing.F) {
	seeds := []string{
		// Well-formed lines, one per verb.
		"hello wbserve/1 csi 100 1 20 2 4",
		"hello wbserve/1 rssi 100 1.5 20 2 0 prio=9 resume=1",
		"resume wbserve/1 0123456789abcdef 12",
		"m 1.25 10.1 9.8 1 2 3 4 5 6 7 8",
		"flush",
		"ok 00000042 token=00deadbeef001122 seq=17 fin=0",
		"ok 7",
		"bit 3 1 75",
		"done 10100110101001101010 corr=0.93 mpb=9.5",
		"done - corr=0 mpb=0",
		"error serve: session poisoned",
		"reject retry-after=2.5 serve: at session capacity",
		// Malformed: wrong magic, bad floats, oversized fields, truncation.
		"hello wbserve/2 csi 100 1 20 2 4",
		"hello wbserve/1 csi nan 1 20 2 4",
		"hello wbserve/1 csi +Inf 1 20 2 4",
		"hello wbserve/1 csi 100 1 999999999 2 4",
		"hello wbserve/1 csi 100 1 20 2 4 prio=99",
		"hello wbserve/1 csi 100 1 20 2 4 unknown=1",
		"resume wbserve/1 xyz 5",
		"resume wbserve/1 0123456789ABCDEF 5",
		"resume wbserve/1 0123456789abcdef 999999999999999999",
		"resume wbserve/1 0123456789abcdef -1",
		"m 1e309 1 2",
		"m",
		"ok 00000042 token=",
		"done 1012 corr=0 mpb=0",
		"reject retry-after=x overloaded",
		"",
		"hello",
		"\x00\xff hello wbserve/1",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	rec := serve.AppendRecord(nil, fuzzShape())
	f.Add(rec)
	f.Add(rec[:len(rec)/2])
	f.Add([]byte{serve.RecordTag})
	f.Fuzz(func(t *testing.T, line []byte) {
		if p, err := serve.ParseHello(line); err == nil {
			rt, err2 := serve.ParseHello(serve.AppendHello(nil, p))
			if err2 != nil {
				t.Fatalf("accepted hello %q did not reparse: %v", line, err2)
			}
			if rt != p {
				t.Fatalf("hello round trip changed %+v to %+v", p, rt)
			}
		}
		if tok, have, err := serve.ParseResume(line); err == nil {
			tok2, have2, err2 := serve.ParseResume(serve.AppendResume(nil, tok, have))
			if err2 != nil {
				t.Fatalf("accepted resume %q did not reparse: %v", line, err2)
			}
			if tok2 != tok || have2 != have {
				t.Fatalf("resume round trip changed (%q,%d) to (%q,%d)", tok, have, tok2, have2)
			}
		}
		m := fuzzShape()
		if err := serve.ParseMeasurement(line, &m); err == nil {
			canon := serve.AppendMeasurement(nil, m)
			m2 := fuzzShape()
			if err2 := serve.ParseMeasurement(canon, &m2); err2 != nil {
				t.Fatalf("accepted m line %q did not reparse: %v", line, err2)
			}
			if again := serve.AppendMeasurement(nil, m2); !bytes.Equal(canon, again) {
				t.Fatalf("m canonical form unstable: %q then %q", canon, again)
			}
		}
		padded := make([]byte, serve.RecordSize(2, 4))
		padded[0] = serve.RecordTag
		copy(padded[1:], line)
		for _, rec := range [][]byte{line, padded} {
			m := fuzzShape()
			if err := serve.ParseRecord(rec, &m); err == nil {
				if again := serve.AppendRecord(nil, m); !bytes.Equal(rec, again) {
					t.Fatalf("record %x re-encoded as %x", rec, again)
				}
			}
		}
		_, _ = serve.ParseResponse(line)
	})
}

// fuzzShape is the 2-antenna, 4-sub-channel measurement every fuzzed
// request parses into.
func fuzzShape() csi.Measurement {
	return csi.Measurement{
		RSSI: make([]float64, 2),
		CSI:  [][]float64{make([]float64, 4), make([]float64, 4)},
	}
}
