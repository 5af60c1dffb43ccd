package trace

import (
	"strings"
	"testing"

	"repro/internal/ratelimit"
	"repro/internal/worm"
)

func TestInternalAddressing(t *testing.T) {
	if !Internal(HostIP(0)) || !Internal(HostIP(1127)) {
		t.Error("host IPs should be internal")
	}
	if Internal(0x08080808) {
		t.Error("8.8.8.8 should be external")
	}
	if got := HostIndex(HostIP(42)); got != 42 {
		t.Errorf("HostIndex = %d, want 42", got)
	}
	if got := HostIndex(0x08080808); got != -1 {
		t.Errorf("external HostIndex = %d, want -1", got)
	}
}

func TestRecordDirection(t *testing.T) {
	out := Record{Src: HostIP(1), Dst: 0x08080808}
	if !out.Outbound() || out.Inbound() {
		t.Error("outbound record misclassified")
	}
	in := Record{Src: 0x08080808, Dst: HostIP(1)}
	if !in.Inbound() || in.Outbound() {
		t.Error("inbound record misclassified")
	}
	internal := Record{Src: HostIP(1), Dst: HostIP(2)}
	if internal.Inbound() || internal.Outbound() {
		t.Error("internal record should be neither")
	}
}

func TestIsDNSResponse(t *testing.T) {
	r := Record{Proto: worm.ProtoUDP, SrcPort: 53, DNSAnswer: 5}
	if !r.IsDNSResponse() {
		t.Error("DNS response not recognized")
	}
	r.DNSAnswer = 0
	if r.IsDNSResponse() {
		t.Error("response without answer should not count")
	}
	q := Record{Proto: worm.ProtoUDP, DstPort: 53}
	if q.IsDNSResponse() {
		t.Error("query should not count")
	}
}

func TestTraceSortAndDuration(t *testing.T) {
	// Src numbers the records in input order; the sort must keep that
	// order among equal timestamps. Enough records that the sort cannot
	// finish with a (stable) insertion sort alone.
	tr := &Trace{}
	for i := 0; i < 100; i++ {
		tr.Records = append(tr.Records, Record{Time: int64((i * 7) % 6), Src: ratelimit.IP(i)})
	}
	tr.Sort()
	for i := 1; i < len(tr.Records); i++ {
		a, b := tr.Records[i-1], tr.Records[i]
		if a.Time > b.Time || (a.Time == b.Time && a.Src > b.Src) {
			t.Fatalf("records %d, %d = %+v, %+v: sort must be stable by time", i-1, i, a, b)
		}
	}
	if tr.Duration() != 5 {
		t.Errorf("Duration = %d, want 5", tr.Duration())
	}
	if (&Trace{}).Duration() != 0 {
		t.Error("empty trace duration should be 0")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := &Trace{Records: []Record{
		{Time: 1, Src: HostIP(0), Dst: 0x08080808, Proto: worm.ProtoTCP,
			SrcPort: 30000, DstPort: 80, Flags: FlagSYN},
		{Time: 2, Src: 0x01020304, Dst: HostIP(3), Proto: worm.ProtoUDP,
			SrcPort: 53, DstPort: 32768, DNSAnswer: 0x05060708, DNSTTL: 60000},
		{Time: 3, Src: HostIP(9), Dst: 0x0B0C0D0E, Proto: worm.ProtoICMP},
	}}
	var b strings.Builder
	if _, err := tr.WriteTo(&b); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(got.Records) != len(tr.Records) {
		t.Fatalf("round trip lost records: %d vs %d", len(got.Records), len(tr.Records))
	}
	for i := range tr.Records {
		if got.Records[i] != tr.Records[i] {
			t.Errorf("record %d: got %+v want %+v", i, got.Records[i], tr.Records[i])
		}
	}
}

func TestReadMalformed(t *testing.T) {
	tests := []struct {
		name, in string
	}{
		{"too few fields", "1\t2\t3\n"},
		{"non-numeric", "1\t2\t3\tx\t5\t6\t7\t8\t9\n"},
		{"negative", "-1\t2\t3\t4\t5\t6\t7\t8\t9\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(tt.in)); err == nil {
				t.Error("want parse error")
			}
		})
	}
	// Blank lines are tolerated.
	got, err := Read(strings.NewReader("\n\n1\t2\t3\t1\t5\t6\t0\t0\t0\n\n"))
	if err != nil || len(got.Records) != 1 {
		t.Errorf("blank lines: %v, %d records", err, len(got.Records))
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != -1 {
		t.Error("empty histogram quantile should be -1")
	}
	for _, v := range []int{1, 2, 2, 3, 10} {
		h.Add(v)
	}
	if h.Total() != 5 || h.Max() != 10 {
		t.Errorf("Total=%d Max=%d", h.Total(), h.Max())
	}
	if got := h.Mean(); got != 18.0/5 {
		t.Errorf("Mean = %v", got)
	}
	if h.Quantile(0.5) != 2 || h.Quantile(1) != 10 || h.Quantile(0.2) != 1 {
		t.Errorf("quantiles wrong: %d %d %d", h.Quantile(0.5), h.Quantile(1), h.Quantile(0.2))
	}
	h.AddZeros(5)
	if h.Total() != 10 || h.Quantile(0.5) != 0 || h.Quantile(0.6) != 1 {
		t.Errorf("after zeros: total=%d q50=%d q60=%d",
			h.Total(), h.Quantile(0.5), h.Quantile(0.6))
	}
	h.AddZeros(-3) // no-op
	if h.Total() != 10 {
		t.Error("negative AddZeros should be ignored")
	}
	xs, ps := h.Points()
	if len(xs) == 0 || xs[0] != 0 || ps[len(ps)-1] != 1 {
		t.Errorf("points: %v %v", xs, ps)
	}
	if h.Quantile(0) != -1 || h.Quantile(1.5) != -1 {
		t.Error("bad q should be -1")
	}
}
