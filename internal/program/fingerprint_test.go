package program

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"
)

// wordByWordFingerprint is the original Fingerprint, one hash Write per
// 4-byte word. Run-store records are addressed through the digest, so the
// segment-at-a-time hashing must reproduce it exactly.
func wordByWordFingerprint(im *Image) [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	writeU32 := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[:4], v)
		h.Write(buf[:4])
	}
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:8], v)
		h.Write(buf[:8])
	}
	writeU64(uint64(len(im.Text)))
	for _, w := range im.Text {
		writeU32(w)
	}
	writeU64(uint64(len(im.Data)))
	for _, w := range im.Data {
		writeU32(w)
	}
	writeU32(im.Entry)
	if im.Native {
		writeU32(1)
	} else {
		writeU32(0)
	}
	var fp [sha256.Size]byte
	h.Sum(fp[:0])
	return fp
}

func TestFingerprintMatchesWordByWord(t *testing.T) {
	fixed := buildFixed(t)
	nat, err := ToNative(buildFixed(t))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder()
	b.Nop()
	b.Halt()
	b.Word(0xdeadbeef, 1, 2, 3, 4, 5)
	b.Space(1000)
	withData, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	for name, im := range map[string]*Image{"fixed": fixed, "native": nat, "data": withData} {
		if got, want := im.Fingerprint(), wordByWordFingerprint(im); got != want {
			t.Errorf("%s: fingerprint %x, word-by-word %x", name, got, want)
		}
	}
	if fixed.Fingerprint() == nat.Fingerprint() {
		t.Error("fixed and native layouts share a fingerprint")
	}
}
