package ckpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
)

// SaveCrashing simulates the writer being killed after exactly n bytes
// of the temp file hit disk: the partial temp file is left behind and
// no rename happens — byte-for-byte the on-disk state a crash at that
// offset leaves the atomic Save path in. The crash-consistency
// property test sweeps n over random offsets.
func SaveCrashing(dir string, s *State, n int) error {
	enc, err := s.Encode()
	if err != nil {
		return err
	}
	if n > len(enc) {
		n = len(enc)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-ckpt-*")
	if err != nil {
		return err
	}
	defer tmp.Close()
	_, err = tmp.Write(enc[:n])
	return err
}

// SaveTorn writes exactly n bytes of s's encoding AT THE FINAL
// checkpoint path — the state a non-atomic writer, a corrupted rename,
// or power loss without fsync would leave. LatestValid must skip it.
func SaveTorn(dir string, s *State, n int) error {
	enc, err := s.Encode()
	if err != nil {
		return err
	}
	if n > len(enc) {
		n = len(enc)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, FileName(s.Iter)), enc[:n], 0o644)
}

// EncodeV1ForTest renders s in the version-1 wire layout (no Streams
// header field), so the forward-compat test can prove old files still
// load. The payload geometry is identical to version 2; only the JSON
// header differs.
func EncodeV1ForTest(s *State) ([]byte, error) {
	streams := s.Streams
	s.Streams = nil
	defer func() { s.Streams = streams }()
	enc, err := s.Encode()
	if err != nil {
		return nil, err
	}
	return ResealForTest(enc, func(h map[string]any) { h["version"] = 1 })
}

// ResealForTest rewrites enc's JSON header through edit and re-derives
// the length prefix and SHA-256 trailer, so the result passes the
// integrity check and only Decode's own validation of the header
// stands between it and a State. Numbers keep their exact spelling.
func ResealForTest(enc []byte, edit func(h map[string]any)) ([]byte, error) {
	hlen := int(binary.LittleEndian.Uint32(enc[len(magic):]))
	hdrStart := len(magic) + 4
	var h map[string]any
	dec := json.NewDecoder(bytes.NewReader(enc[hdrStart : hdrStart+hlen]))
	dec.UseNumber()
	if err := dec.Decode(&h); err != nil {
		return nil, err
	}
	edit(h)
	hdr, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	payload := enc[hdrStart+hlen : len(enc)-sha256.Size]
	var buf bytes.Buffer
	buf.WriteString(magic)
	var hl [4]byte
	binary.LittleEndian.PutUint32(hl[:], uint32(len(hdr)))
	buf.Write(hl[:])
	buf.Write(hdr)
	buf.Write(payload)
	sum := sha256.Sum256(buf.Bytes())
	buf.Write(sum[:])
	return buf.Bytes(), nil
}
