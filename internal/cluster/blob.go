package cluster

import (
	"encoding/binary"
	"fmt"

	"nodesampling/internal/cursor"
	"nodesampling/internal/netgossip"
)

// Migration is the unit of a live shard hand-off: the slot range changing
// hands, the placement epoch the transfer installs, the Γ ids that live in
// the range, and the sampler's opaque marshalled frequency state (produced
// by the pool's export, merged by the target's import). Strategy names the
// sampler so a mismatched target fails loudly before touching its pool.
type Migration struct {
	Epoch    uint64
	FromSlot uint32
	ToSlot   uint32
	Strategy string
	IDs      []uint64
	State    []byte
}

// blobMagic versions the migration wire blob independently of the frame
// protocol: the frame carries opaque bytes, this header says what they are.
var blobMagic = [4]byte{'U', 'N', 'S', 'M'}

const blobVersion = 1

// maxBlobStrategy bounds the strategy-name field on decode.
const maxBlobStrategy = 256

// EncodeMigration serialises a Migration into one blob bounded by the
// frame layer's MaxMigratePayload.
//
// Layout (all integers big-endian):
//
//	"UNSM" | version u32 | epoch u64 | fromSlot u32 | toSlot u32 |
//	len(strategy) u32 | strategy | len(ids) u32 | ids u64... |
//	len(state) u32 | state
func EncodeMigration(m Migration) ([]byte, error) {
	if len(m.Strategy) == 0 || len(m.Strategy) > maxBlobStrategy {
		return nil, fmt.Errorf("cluster: migration strategy name length %d out of [1, %d]", len(m.Strategy), maxBlobStrategy)
	}
	if m.FromSlot > m.ToSlot {
		return nil, fmt.Errorf("cluster: migration slot range [%d, %d] inverted", m.FromSlot, m.ToSlot)
	}
	size := 4 + 4 + 8 + 4 + 4 + 4 + len(m.Strategy) + 4 + 8*len(m.IDs) + 4 + len(m.State)
	if size > netgossip.MaxMigratePayload {
		return nil, fmt.Errorf("cluster: migration blob %d bytes exceeds %d", size, netgossip.MaxMigratePayload)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, blobMagic[:]...)
	buf = binary.BigEndian.AppendUint32(buf, blobVersion)
	buf = binary.BigEndian.AppendUint64(buf, m.Epoch)
	buf = binary.BigEndian.AppendUint32(buf, m.FromSlot)
	buf = binary.BigEndian.AppendUint32(buf, m.ToSlot)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Strategy)))
	buf = append(buf, m.Strategy...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.IDs)))
	for _, id := range m.IDs {
		buf = binary.BigEndian.AppendUint64(buf, id)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.State)))
	buf = append(buf, m.State...)
	return buf, nil
}

// DecodeMigration parses and validates a migration blob. Returned slices
// are freshly allocated (the frame payload buffer they arrive in belongs
// to the connection's reader).
func DecodeMigration(blob []byte) (Migration, error) {
	var m Migration
	r := cursor.New("cluster: migration blob", blob)
	magic, version := r.Bytes(4), r.U32()
	if err := r.Err(); err != nil {
		return m, err
	}
	if [4]byte(magic) != blobMagic {
		return m, fmt.Errorf("cluster: bad migration blob magic %q", magic)
	}
	if version != blobVersion {
		return m, fmt.Errorf("cluster: unsupported migration blob version %d", version)
	}
	m.Epoch, m.FromSlot, m.ToSlot = r.U64(), r.U32(), r.U32()
	sn := r.U32()
	if err := r.Err(); err != nil {
		return m, err
	}
	if m.FromSlot > m.ToSlot {
		return m, fmt.Errorf("cluster: migration slot range [%d, %d] inverted", m.FromSlot, m.ToSlot)
	}
	if sn == 0 || sn > maxBlobStrategy {
		return m, fmt.Errorf("cluster: migration strategy name length %d out of [1, %d]", sn, maxBlobStrategy)
	}
	m.Strategy = string(r.Bytes(int(sn)))
	m.IDs = r.U64s(int(r.U32()))
	m.State = append([]byte(nil), r.Bytes(int(r.U32()))...)
	return m, r.End()
}
