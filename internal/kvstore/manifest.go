package kvstore

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/wire"
)

// Manifest is the epoch-versioned on-disk descriptor of a provider data
// directory (kopia-style format manifest): the layout version the writing
// binary used, the feature flags it relied on, and the provider identity
// plus last-known placement needed to rejoin a cluster after a crash.
// A binary refuses to open a directory whose manifest names a format
// version or feature it does not understand, instead of silently
// corrupting state written by a newer release.
//
// File layout (MANIFEST in the data dir, little-endian, written
// atomically via temp file + fsync + rename + dir fsync):
//
//	u32 magic "EVSM" | u32 format version | u32 provider id |
//	u64 placement epoch | bytes32 encoded placement state |
//	u32 feature count | feature strings | u32 crc32 (of all prior bytes)
type Manifest struct {
	// FormatVersion is the manifest layout version; SaveManifest always
	// writes ManifestFormatVersion.
	FormatVersion uint32
	// ProviderID is the provider that owns the data dir. A restarted
	// server must refuse a dir recorded for a different provider.
	ProviderID uint32
	// PlacementEpoch is the cluster placement epoch in force when the
	// manifest was written; the restart-rejoin handshake compares it
	// against peers and adopts any newer state.
	PlacementEpoch uint64
	// Placement is the encoded placement state (internal/placement owns
	// the codec; kvstore stores it opaquely).
	Placement []byte
	// Features lists the capabilities the writer relied on; opening fails
	// on any feature outside the supported set.
	Features []string
}

const (
	// ManifestName is the manifest's filename inside a data dir.
	ManifestName = "MANIFEST"
	// ManifestFormatVersion is the newest manifest layout this binary
	// writes and understands.
	ManifestFormatVersion = 1

	manifestMagic = 0x4556534d // "EVSM"
)

// FeatureDurableCatalog marks a data dir whose provider catalog (models,
// refcounts, repair journals, tombstones) is persisted under cat/ keys
// and replayed at open.
const FeatureDurableCatalog = "catalog-v1"

// FeatureSHA256Chunks marks a data dir whose content-addressed chunks
// (internal/dedup) are keyed by SHA-256-128 IDs under version-2 recipes.
// A binary that keyed chunks by 64-bit FNV does not support it and so
// refuses the dir; in the other direction dedup.KV.Recover refuses a
// store written in that older format.
const FeatureSHA256Chunks = "cas-sha256-128"

// FeatureValueLogs marks a data dir whose LSMKV tables may hold vptr
// entries: values of 4 KiB or more kept in NNNNNN.vlog value logs. A binary
// whose tables hold every value inline does not support it and so refuses
// the dir by name, rather than failing to parse a table.
const FeatureValueLogs = "lsm-vlog-v1"

// supportedFeatures gates LoadManifest: a feature outside this set was
// written by a newer binary relying on semantics this one lacks.
var supportedFeatures = map[string]bool{
	FeatureDurableCatalog: true,
	FeatureSHA256Chunks:   true,
	FeatureValueLogs:      true,
}

// LoadManifest reads and validates dir's manifest. A missing manifest is
// not an error: (nil, nil) is returned so callers can treat the dir as
// freshly initialized.
func LoadManifest(dir string) (*Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if len(raw) < 4 {
		return nil, fmt.Errorf("kvstore: manifest in %s: truncated", dir)
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(body) != wire.NewReader(tail).U32() {
		return nil, fmt.Errorf("kvstore: manifest in %s: checksum mismatch", dir)
	}
	r := wire.NewReader(body)
	if r.U32() != manifestMagic {
		return nil, fmt.Errorf("kvstore: manifest in %s: bad magic", dir)
	}
	m := &Manifest{
		FormatVersion:  r.U32(),
		ProviderID:     r.U32(),
		PlacementEpoch: r.U64(),
		Placement:      append([]byte(nil), r.Bytes32()...),
	}
	n := int(r.U32())
	for i := 0; i < n && r.Err() == nil; i++ {
		m.Features = append(m.Features, r.Str())
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("kvstore: manifest in %s: %w", dir, r.Err())
	}
	if m.FormatVersion > ManifestFormatVersion {
		return nil, fmt.Errorf("kvstore: manifest in %s: format version %d newer than supported %d",
			dir, m.FormatVersion, ManifestFormatVersion)
	}
	var unknown []string
	for _, f := range m.Features {
		if !supportedFeatures[f] {
			unknown = append(unknown, f)
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("kvstore: manifest in %s requires unsupported features %s",
			dir, strings.Join(unknown, ","))
	}
	return m, nil
}

// SaveManifest atomically writes m as dir's manifest (writeFileAtomic: a
// crash leaves either the old or the new manifest, never a torn one). The stored format version is always
// ManifestFormatVersion.
func SaveManifest(dir string, m *Manifest) error {
	w := wire.NewWriter(64 + len(m.Placement))
	w.U32(manifestMagic)
	w.U32(ManifestFormatVersion)
	w.U32(m.ProviderID)
	w.U64(m.PlacementEpoch)
	w.Bytes32(m.Placement)
	w.U32(uint32(len(m.Features)))
	for _, f := range m.Features {
		w.String(f)
	}
	body := w.Bytes()
	var crcb [4]byte
	cw := wire.NewWriter(4)
	cw.U32(crc32.ChecksumIEEE(body))
	copy(crcb[:], cw.Bytes())

	return writeFileAtomic(filepath.Join(dir, ManifestName), append(body, crcb[:]...))
}
