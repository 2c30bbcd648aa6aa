package soap

import (
	"bytes"
	"math/rand"
	"testing"
	"unicode/utf8"
)

// nastyStrings exercises every escaping branch: named entities, control
// characters, newline (escaped in attributes, raw in character data),
// invalid UTF-8, and characters outside the XML range.
var nastyStrings = []string{
	"", "plain", "a|b|c|0.0-1.5|42",
	"<tag>&amp;</tag>", `quotes "and" 'apostrophes'`,
	"tab\there", "newline\nhere", "cr\rhere",
	"invalid \xff utf8", "\x00control", "emoji \U0001F600 ok",
	"trailing&", "&lt;already&gt;",
}

func randItem(rng *rand.Rand) string {
	if rng.Intn(3) == 0 {
		return nastyStrings[rng.Intn(len(nastyStrings))]
	}
	b := make([]byte, rng.Intn(40))
	for i := range b {
		b[i] = byte(rng.Intn(128))
	}
	return string(b)
}

// TestResponseEncoderByteIdentical pins the streaming encoder to the
// string-based EncodeResponse: same op, headers, and items must yield the
// same envelope bytes, whichever Return form carries the items.
func TestResponseEncoderByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ops := []string{"getPR", "getPRResponse", "op-1", "a.b_c"}
	for trial := 0; trial < 400; trial++ {
		op := ops[rng.Intn(len(ops))]
		var headers []HeaderEntry
		for i, n := 0, rng.Intn(3); i < n; i++ {
			headers = append(headers, HeaderEntry{
				Name:  randItem(rng),
				Value: randItem(rng),
			})
		}
		items := make([]string, rng.Intn(6))
		for i := range items {
			items[i] = randItem(rng)
		}

		want, err := EncodeResponse(op, headers, items)
		if err != nil {
			t.Fatal(err)
		}

		var buf bytes.Buffer
		var enc ResponseEncoder
		if err := enc.Begin(&buf, op, headers); err != nil {
			t.Fatal(err)
		}
		for i, it := range items {
			if i%2 == 0 {
				enc.ReturnBytes([]byte(it))
			} else {
				enc.Return(it)
			}
		}
		if err := enc.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("streamed envelope diverges for op=%q items=%q:\nstream %q\noracle %q",
				op, items, buf.Bytes(), want)
		}
		// And the decoder round-trips it like any canonical envelope.
		resp, err := DecodeResponse(buf.Bytes())
		if err != nil {
			t.Fatalf("decode streamed envelope: %v", err)
		}
		if len(resp.Returns) != len(items) {
			t.Fatalf("round trip lost items: %d != %d", len(resp.Returns), len(items))
		}
	}
}

func TestResponseEncoderRejectsBadOpAndLegacy(t *testing.T) {
	var buf bytes.Buffer
	var enc ResponseEncoder
	if err := enc.Begin(&buf, "1bad", nil); err == nil {
		t.Fatal("want error for invalid operation name")
	}
	if buf.Len() != 0 {
		t.Fatalf("failed Begin wrote %d bytes", buf.Len())
	}
	SetLegacyCodec(true)
	defer SetLegacyCodec(false)
	if err := enc.Begin(&buf, "getPR", nil); err != ErrStreamUnavailable {
		t.Fatalf("want ErrStreamUnavailable under legacy codec, got %v", err)
	}
}

// TestResponseEncoderItemAllocs pins the fast-path encode: streaming
// items into a pre-grown buffer allocates nothing per item.
func TestResponseEncoderItemAllocs(t *testing.T) {
	buf := GetBuffer()
	defer PutBuffer(buf)
	item := []byte("func_calls|/Code/MPI/MPI_Allgather|vampir|0.0-11.047856|129.75")
	var enc ResponseEncoder
	run := func() {
		buf.Reset()
		if err := enc.Begin(buf, "getPR", nil); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			enc.ReturnBytes(item)
		}
		if err := enc.Close(); err != nil {
			t.Fatal(err)
		}
	}
	run() // grow the buffer once
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("streamed encode allocates %.1f times per envelope, want 0", n)
	}
}

// writeEscapedBytesPerRune is writeEscapedBytes without the ASCII fast
// path: every rune decoded, as the encoder did before it.
func writeEscapedBytesPerRune(w *bytes.Buffer, s []byte, escapeNewline bool) {
	for i := 0; i < len(s); {
		r, width := utf8.DecodeRune(s[i:])
		i += width
		switch {
		case r == '"':
			w.WriteString(escQuot)
		case r == '\'':
			w.WriteString(escApos)
		case r == '&':
			w.WriteString(escAmp)
		case r == '<':
			w.WriteString(escLT)
		case r == '>':
			w.WriteString(escGT)
		case r == '\t':
			w.WriteString(escTab)
		case r == '\n' && escapeNewline:
			w.WriteString(escNL)
		case r == '\r':
			w.WriteString(escCR)
		case r != '\n' && (!inCharacterRange(r) || r == utf8.RuneError && width == 1):
			w.WriteString(escFFFD)
		default:
			w.Write(s[i-width : i])
		}
	}
}

// TestWriteEscapedBytesFastPath holds the ASCII fast path byte-identical
// to the per-rune loop, and to the string escaper, over random bytes: invalid UTF-8, control
// characters, every special, multi-byte runes in and out of the XML
// range, with newline escaping on and off.
func TestWriteEscapedBytesFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pieces := [][]byte{
		[]byte(`"`), []byte("'"), []byte("&"), []byte("<"), []byte(">"),
		[]byte("\t"), []byte("\n"), []byte("\r"), {0x00}, {0x1f}, {0x7f}, {0x80}, {0xff},
		[]byte("é"), []byte("\uFFFE"), []byte("\uFFFD"), []byte("\U0001F600"), {0xed, 0xa0, 0x80},
		{0xe2, 0x82}, []byte("plain 0.125|"),
	}
	var got, want bytes.Buffer
	for i := 0; i < 5000; i++ {
		var s []byte
		for n := rng.Intn(24); n > 0; n-- {
			if rng.Intn(2) == 0 {
				s = append(s, byte(rng.Intn(256)))
			} else {
				s = append(s, pieces[rng.Intn(len(pieces))]...)
			}
		}
		for _, nl := range []bool{false, true} {
			got.Reset()
			want.Reset()
			if err := writeEscapedBytes(&got, s, nl); err != nil {
				t.Fatal(err)
			}
			writeEscapedBytesPerRune(&want, s, nl)
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("escapeNewline=%v input %q:\nfast     %q\nper-rune %q", nl, s, got.Bytes(), want.Bytes())
			}
			want.Reset()
			if err := writeEscaped(&want, string(s), nl); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("escapeNewline=%v input %q:\nbytes  %q\nstring %q", nl, s, got.Bytes(), want.Bytes())
			}
		}
	}
}
