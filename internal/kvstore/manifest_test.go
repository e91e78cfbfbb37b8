package kvstore

import (
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wire"
)

// resealManifest writes body plus a freshly computed checksum tail, so a
// test can tamper with manifest fields while keeping the CRC valid.
func resealManifest(path string, body []byte) error {
	cw := wire.NewWriter(4)
	cw.U32(crc32.ChecksumIEEE(body))
	return os.WriteFile(path, append(append([]byte(nil), body...), cw.Bytes()...), 0o644)
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := &Manifest{
		ProviderID:     3,
		PlacementEpoch: 42,
		Placement:      []byte{1, 2, 3, 4},
		Features:       []string{FeatureDurableCatalog},
	}
	if err := SaveManifest(dir, in); err != nil {
		t.Fatal(err)
	}
	out, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if out == nil {
		t.Fatal("LoadManifest returned nil for a saved manifest")
	}
	if out.FormatVersion != ManifestFormatVersion {
		t.Errorf("FormatVersion = %d, want %d", out.FormatVersion, ManifestFormatVersion)
	}
	if out.ProviderID != 3 || out.PlacementEpoch != 42 {
		t.Errorf("identity = (%d, %d), want (3, 42)", out.ProviderID, out.PlacementEpoch)
	}
	if string(out.Placement) != string(in.Placement) {
		t.Errorf("Placement = %v, want %v", out.Placement, in.Placement)
	}
	if len(out.Features) != 1 || out.Features[0] != FeatureDurableCatalog {
		t.Errorf("Features = %v", out.Features)
	}
}

func TestManifestAbsent(t *testing.T) {
	m, err := LoadManifest(t.TempDir())
	if err != nil || m != nil {
		t.Errorf("LoadManifest(empty dir) = %v, %v; want nil, nil", m, err)
	}
}

func TestManifestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	if err := SaveManifest(dir, &Manifest{ProviderID: 1}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ManifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(dir); err == nil {
		t.Error("corrupted manifest loaded without error")
	}

	// A truncated manifest (torn write without the atomic rename) must
	// also refuse, not decode garbage.
	if err := os.WriteFile(path, raw[:3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(dir); err == nil {
		t.Error("truncated manifest loaded without error")
	}
}

func TestManifestUnknownFeatureRefused(t *testing.T) {
	dir := t.TempDir()
	err := SaveManifest(dir, &Manifest{
		ProviderID: 0,
		Features:   []string{FeatureDurableCatalog, "sharded-catalog-v9"},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = LoadManifest(dir)
	if err == nil || !strings.Contains(err.Error(), "sharded-catalog-v9") {
		t.Errorf("unknown feature: err = %v, want mention of sharded-catalog-v9", err)
	}
}

// TestManifestValueLogFeatureGate: a dir whose manifest names value logs
// opens here, and a binary without them in its supported set — as every
// one before value logs — refuses it by the feature's name.
func TestManifestValueLogFeatureGate(t *testing.T) {
	dir := t.TempDir()
	if err := SaveManifest(dir, &Manifest{Features: []string{FeatureDurableCatalog, FeatureValueLogs}}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(dir); err != nil {
		t.Fatalf("value-log dir refused: %v", err)
	}
	delete(supportedFeatures, FeatureValueLogs)
	defer func() { supportedFeatures[FeatureValueLogs] = true }()
	if _, err := LoadManifest(dir); err == nil || !strings.Contains(err.Error(), FeatureValueLogs) {
		t.Errorf("without value-log support: err = %v, want mention of %s", err, FeatureValueLogs)
	}
}

func TestManifestNewerFormatRefused(t *testing.T) {
	dir := t.TempDir()
	if err := SaveManifest(dir, &Manifest{ProviderID: 0}); err != nil {
		t.Fatal(err)
	}
	// Bump the stored format version past what this binary understands and
	// re-seal the checksum, simulating a file written by a newer release.
	path := filepath.Join(dir, ManifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[4] = ManifestFormatVersion + 1 // little-endian u32 right after the magic
	body := raw[:len(raw)-4]
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	// Recompute the CRC the same way SaveManifest does.
	m2, errLoad := LoadManifest(dir)
	if errLoad == nil {
		t.Fatalf("manifest with bad checksum loaded: %+v", m2)
	}
	// Now with a valid checksum over the bumped version.
	if err := resealManifest(path, body); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(dir); err == nil {
		t.Error("newer-format manifest loaded without error")
	}
}

// TestManifestAtomicSave: a save over an existing manifest leaves no temp
// file behind and the result reads back valid.
func TestManifestAtomicSave(t *testing.T) {
	dir := t.TempDir()
	for epoch := uint64(0); epoch < 3; epoch++ {
		if err := SaveManifest(dir, &Manifest{ProviderID: 7, PlacementEpoch: epoch}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName+".tmp")); !os.IsNotExist(err) {
		t.Errorf("temp manifest left behind: %v", err)
	}
	m, err := LoadManifest(dir)
	if err != nil || m == nil || m.PlacementEpoch != 2 {
		t.Errorf("final manifest = %+v, %v; want epoch 2", m, err)
	}
}
