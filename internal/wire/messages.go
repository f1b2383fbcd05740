package wire

import (
	"encoding/binary"
	"time"
)

// Service names registered with simnet nodes. The two-round protocols use
// one service per round, matching the latency measurement points of §VI
// (LOGIN1, LOGIN2, SWITCH1, SWITCH2, JOIN).
const (
	SvcLogin1   = "drm.login1"
	SvcLogin2   = "drm.login2"
	SvcSwitch1  = "drm.switch1"
	SvcSwitch2  = "drm.switch2"
	SvcJoin     = "p2p.join"
	SvcSeek     = "p2p.seek"
	SvcChanList = "drm.chanlist"
	SvcRedirect = "drm.redirect"
	SvcLicense  = "trad.license" // baseline traditional DRM

	// One-way overlay pushes.
	SvcKeyPush     = "p2p.keypush"
	SvcContent     = "p2p.content"
	SvcRenewal     = "p2p.renewal"
	SvcLeave       = "p2p.leave"
	SvcPeerExpire  = "p2p.expire"    // peer → peer: your ticket lapsed
	SvcPolicyFeed  = "mgmt.policy"   // Channel Policy Manager → User Managers (attr list)
	SvcChannelFeed = "mgmt.channels" // Channel Policy Manager → Channel Managers (channel list)
)

// IdempotentService reports whether a service's requests are safe to
// repeat at the transport layer. The round-1 openers and read-only
// lookups qualify: re-sending them at worst re-issues a challenge or a
// list. The round-2 finishers (LOGIN2, SWITCH2) consume a one-time
// server token — if the original request reached the manager and only
// the reply was lost, a blind resend burns the token and fails with
// bad_token — so a failed round 2 restarts the protocol at round 1
// instead (see internal/client).
func IdempotentService(service string) bool {
	switch service {
	case SvcRedirect, SvcLogin1, SvcSwitch1, SvcChanList, SvcJoin, SvcSeek, SvcLicense:
		return true
	}
	return false
}

// Login1Req opens the login protocol: the client sends the user's email
// address, its public key, and its version number (§IV-F1).
type Login1Req struct {
	Email     string
	ClientKey []byte
	Version   uint32
}

// Encode serializes the message.
func (m *Login1Req) Encode() []byte {
	e := newEnc(strLen(m.Email) + blobLen(m.ClientKey) + 4)
	e.Str(m.Email)
	e.Blob(m.ClientKey)
	e.U32(m.Version)
	return e.Bytes()
}

// DecodeLogin1Req parses a Login1Req.
func DecodeLogin1Req(b []byte) (*Login1Req, error) {
	d := NewDec(b)
	m := &Login1Req{Email: d.Str(), ClientKey: d.Blob(), Version: d.U32()}
	return m, d.Finish()
}

// Login1Resp carries the challenge: a nonce and checksum parameters,
// symmetrically encrypted under shp (the secure hash of the user's
// password), plus a stateless server token that lets any User Manager
// farm member finish the handshake (§V: stateless authentication).
type Login1Resp struct {
	Sealed []byte // shp-sealed nonce(16) || checksum params(16)
	Token  []byte // HMAC-authenticated server state
}

// Encode serializes the message.
func (m *Login1Resp) Encode() []byte {
	e := newEnc(blobLen(m.Sealed) + blobLen(m.Token))
	e.Blob(m.Sealed)
	e.Blob(m.Token)
	return e.Bytes()
}

// DecodeLogin1Resp parses a Login1Resp.
func DecodeLogin1Resp(b []byte) (*Login1Resp, error) {
	d := NewDec(b)
	m := &Login1Resp{Sealed: d.Blob(), Token: d.Blob()}
	return m, d.Finish()
}

// Login2Req completes login: the client returns the nonce and computed
// checksum under its private key (an Ed25519 signature here), together
// with the server token.
type Login2Req struct {
	Email    string
	Token    []byte
	Nonce    []byte
	Checksum []byte
	Sig      []byte // client signature over nonce || checksum
}

// Encode serializes the message.
func (m *Login2Req) Encode() []byte {
	e := newEnc(strLen(m.Email) + blobLen(m.Token) + blobLen(m.Nonce) +
		blobLen(m.Checksum) + blobLen(m.Sig))
	e.Str(m.Email)
	e.Blob(m.Token)
	e.Blob(m.Nonce)
	e.Blob(m.Checksum)
	e.Blob(m.Sig)
	return e.Bytes()
}

// DecodeLogin2Req parses a Login2Req.
func DecodeLogin2Req(b []byte) (*Login2Req, error) {
	d := NewDec(b)
	m := &Login2Req{
		Email: d.Str(), Token: d.Blob(), Nonce: d.Blob(),
		Checksum: d.Blob(), Sig: d.Blob(),
	}
	return m, d.Finish()
}

// Login2Resp returns the signed User Ticket plus timing information used
// to synchronize the client clock (§IV-F1).
type Login2Resp struct {
	UserTicket []byte
	ServerTime time.Time
	MinVersion uint32
}

// Encode serializes the message.
func (m *Login2Resp) Encode() []byte {
	e := newEnc(blobLen(m.UserTicket) + 8 + 4)
	e.Blob(m.UserTicket)
	e.instant(m.ServerTime)
	e.U32(m.MinVersion)
	return e.Bytes()
}

// DecodeLogin2Resp parses a Login2Resp.
func DecodeLogin2Resp(b []byte) (*Login2Resp, error) {
	d := NewDec(b)
	m := &Login2Resp{UserTicket: d.Blob(), ServerTime: d.instant(), MinVersion: d.U32()}
	return m, d.Finish()
}

// SwitchReq opens channel switching (SWITCH1): the client presents its
// User Ticket and either a target channel id (fresh ticket) or the
// expiring Channel Ticket "in lieu of the channel identification"
// (renewal, §IV-D).
type SwitchReq struct {
	UserTicket     []byte
	ChannelID      string
	ExpiringTicket []byte // non-empty for renewals
}

// Encode serializes the message.
func (m *SwitchReq) Encode() []byte {
	e := newEnc(blobLen(m.UserTicket) + strLen(m.ChannelID) + blobLen(m.ExpiringTicket))
	e.Blob(m.UserTicket)
	e.Str(m.ChannelID)
	e.Blob(m.ExpiringTicket)
	return e.Bytes()
}

// DecodeSwitchReq parses a SwitchReq.
func DecodeSwitchReq(b []byte) (*SwitchReq, error) {
	d := NewDec(b)
	m := &SwitchReq{UserTicket: d.Blob(), ChannelID: d.Str(), ExpiringTicket: d.Blob()}
	return m, d.Finish()
}

// SwitchChallenge is the SWITCH1 reply: a nonce challenge with a
// stateless server token.
type SwitchChallenge struct {
	Nonce []byte
	Token []byte
}

// Encode serializes the message.
func (m *SwitchChallenge) Encode() []byte {
	e := newEnc(blobLen(m.Nonce) + blobLen(m.Token))
	e.Blob(m.Nonce)
	e.Blob(m.Token)
	return e.Bytes()
}

// DecodeSwitchChallenge parses a SwitchChallenge.
func DecodeSwitchChallenge(b []byte) (*SwitchChallenge, error) {
	d := NewDec(b)
	m := &SwitchChallenge{Nonce: d.Blob(), Token: d.Blob()}
	return m, d.Finish()
}

// SwitchFinish is the SWITCH2 request: the client echoes the challenge
// under its private key.
type SwitchFinish struct {
	UserTicket     []byte
	ChannelID      string
	ExpiringTicket []byte
	Token          []byte
	Nonce          []byte
	Sig            []byte // client signature over nonce
}

// Encode serializes the message.
func (m *SwitchFinish) Encode() []byte {
	e := newEnc(blobLen(m.UserTicket) + strLen(m.ChannelID) + blobLen(m.ExpiringTicket) +
		blobLen(m.Token) + blobLen(m.Nonce) + blobLen(m.Sig))
	e.Blob(m.UserTicket)
	e.Str(m.ChannelID)
	e.Blob(m.ExpiringTicket)
	e.Blob(m.Token)
	e.Blob(m.Nonce)
	e.Blob(m.Sig)
	return e.Bytes()
}

// DecodeSwitchFinish parses a SwitchFinish.
func DecodeSwitchFinish(b []byte) (*SwitchFinish, error) {
	d := NewDec(b)
	m := &SwitchFinish{
		UserTicket: d.Blob(), ChannelID: d.Str(), ExpiringTicket: d.Blob(),
		Token: d.Blob(), Nonce: d.Blob(), Sig: d.Blob(),
	}
	return m, d.Finish()
}

// SwitchResp is the SWITCH2 reply: the signed Channel Ticket and the peer
// list (deliberately unsigned, §IV-G1).
type SwitchResp struct {
	ChannelTicket []byte
	Peers         []string
}

// Encode serializes the message.
func (m *SwitchResp) Encode() []byte {
	e := newEnc(blobLen(m.ChannelTicket) + strSliceLen(m.Peers))
	e.Blob(m.ChannelTicket)
	e.strSlice(m.Peers)
	return e.Bytes()
}

// DecodeSwitchResp parses a SwitchResp.
func DecodeSwitchResp(b []byte) (*SwitchResp, error) {
	d := NewDec(b)
	m := &SwitchResp{ChannelTicket: d.Blob(), Peers: d.strSlice()}
	return m, d.Finish()
}

// JoinReq asks a peer for admission to the channel overlay, presenting
// the Channel Ticket (§IV-F3). Substreams lists the sub-stream indices
// the joining client wants this parent to forward (receiver-based
// peer-division multiplexing, ref [6]); empty means all.
type JoinReq struct {
	ChannelTicket []byte
	Substreams    []byte
	// Capacity advertises how many children the joiner is itself willing
	// to serve. Cooperative peers advertise their MaxChildren; a zero
	// advertisement marks a free-rider (takes sub-streams, refuses
	// children), which parents may count and deprioritize.
	Capacity uint16
}

// Encode serializes the message.
func (m *JoinReq) Encode() []byte {
	e := newEnc(blobLen(m.ChannelTicket) + blobLen(m.Substreams) + 2)
	e.Blob(m.ChannelTicket)
	e.Blob(m.Substreams)
	e.u16(m.Capacity)
	return e.Bytes()
}

// DecodeJoinReq parses a JoinReq.
func DecodeJoinReq(b []byte) (*JoinReq, error) {
	d := NewDec(b)
	m := &JoinReq{ChannelTicket: d.Blob(), Substreams: d.Blob(), Capacity: d.u16()}
	return m, d.Finish()
}

// JoinResp is the JOIN reply: on accept it carries the session key sealed
// to the client's public key and the current content keys sealed under
// the session key.
type JoinResp struct {
	Accept        bool
	Reason        string
	SealedSession []byte   // cryptoutil.Seal(clientKey, sessionKey)
	SealedKeys    [][]byte // each: sessionKey.Seal(contentKey.Encode())
	// Code types a refusal (CodeUnknown on accept): expired_ticket,
	// addr_mismatch, no_capacity, ... so joiners and adversarial
	// harnesses can switch on the cause instead of parsing Reason.
	Code Code
}

// Encode serializes the message.
func (m *JoinResp) Encode() []byte {
	e := newEnc(1 + strLen(m.Reason) + blobLen(m.SealedSession) + blobSliceLen(m.SealedKeys) + 2)
	e.Bool(m.Accept)
	e.Str(m.Reason)
	e.Blob(m.SealedSession)
	e.blobSlice(m.SealedKeys)
	e.u16(uint16(m.Code))
	return e.Bytes()
}

// DecodeJoinResp parses a JoinResp.
func DecodeJoinResp(b []byte) (*JoinResp, error) {
	d := NewDec(b)
	m := &JoinResp{
		Accept: d.Bool(), Reason: d.Str(),
		SealedSession: d.Blob(), SealedKeys: d.blobSlice(),
		Code: Code(d.u16()),
	}
	return m, d.Finish()
}

// SeekReq asks an overlay parent for retained history frames: the
// time-shift path (catch-up viewing). The requester presents its Channel
// Ticket exactly like a join — history is gated by the same admission
// checks — and names the first sequence number it wants.
type SeekReq struct {
	ChannelTicket []byte
	FromSeq       uint64
	MaxFrames     uint32
}

// Encode serializes the message.
func (m *SeekReq) Encode() []byte {
	e := newEnc(blobLen(m.ChannelTicket) + 8 + 4)
	e.Blob(m.ChannelTicket)
	e.u64(m.FromSeq)
	e.U32(m.MaxFrames)
	return e.Bytes()
}

// DecodeSeekReq parses a SeekReq.
func DecodeSeekReq(b []byte) (*SeekReq, error) {
	d := NewDec(b)
	m := &SeekReq{ChannelTicket: d.Blob(), FromSeq: d.u64(), MaxFrames: d.U32()}
	return m, d.Finish()
}

// HistoryFrame is one retained content frame returned by a seek. The
// packet stays sealed under the content key of its original iteration:
// serving history never re-encrypts, so a seek deeper than the key
// window yields frames the requester cannot decrypt (forward secrecy is
// enforced by key eviction, not by the serving peer).
type HistoryFrame struct {
	Substream uint8
	Seq       uint64
	Packet    []byte
}

// Encode serializes the frame.
func (f *HistoryFrame) Encode() []byte {
	e := newEnc(1 + 8 + blobLen(f.Packet))
	e.u8(f.Substream)
	e.u64(f.Seq)
	e.Blob(f.Packet)
	return e.Bytes()
}

// DecodeHistoryFrame parses a HistoryFrame.
func DecodeHistoryFrame(b []byte) (*HistoryFrame, error) {
	d := NewDec(b)
	f := &HistoryFrame{Substream: d.u8(), Seq: d.u64(), Packet: d.Blob()}
	return f, d.Finish()
}

// SeekResp answers a SeekReq: on accept, up to MaxFrames retained frames
// starting at FromSeq, oldest first. Refusals carry a typed Code
// (seek_too_deep when the window has already evicted FromSeq).
type SeekResp struct {
	Accept bool
	Reason string
	Code   Code
	// OldestSeq/NewestSeq describe the retained window at answer time,
	// so a refused seeker can re-aim without probing.
	OldestSeq uint64
	NewestSeq uint64
	Frames    [][]byte // each: HistoryFrame.Encode()
}

// Encode serializes the message.
func (m *SeekResp) Encode() []byte {
	e := newEnc(1 + strLen(m.Reason) + 2 + 8 + 8 + blobSliceLen(m.Frames))
	e.Bool(m.Accept)
	e.Str(m.Reason)
	e.u16(uint16(m.Code))
	e.u64(m.OldestSeq)
	e.u64(m.NewestSeq)
	e.blobSlice(m.Frames)
	return e.Bytes()
}

// DecodeSeekResp parses a SeekResp.
func DecodeSeekResp(b []byte) (*SeekResp, error) {
	d := NewDec(b)
	m := &SeekResp{
		Accept: d.Bool(), Reason: d.Str(), Code: Code(d.u16()),
		OldestSeq: d.u64(), NewestSeq: d.u64(), Frames: d.blobSlice(),
	}
	return m, d.Finish()
}

// KeyPush distributes one content-key iteration down a peering link,
// sealed under the pairwise session key (§IV-E).
type KeyPush struct {
	ChannelID string
	SealedKey []byte
}

// KeyPushHeaderLen is the encoded size of everything before the sealed
// key bytes in a KeyPush.
func KeyPushHeaderLen(channelID string) int { return 4 + len(channelID) + 4 }

// AppendKeyPushHeader appends the KeyPush framing up to the sealed-key
// bytes: the caller must append exactly sealedLen ciphertext bytes next
// (typically by sealing directly into the same buffer), producing a
// valid DecodeKeyPush input with a single allocation per edge.
func AppendKeyPushHeader(dst []byte, channelID string, sealedLen int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(channelID)))
	dst = append(dst, channelID...)
	return binary.BigEndian.AppendUint32(dst, uint32(sealedLen))
}

// DecodeKeyPush parses a KeyPush.
func DecodeKeyPush(b []byte) (*KeyPush, error) {
	d := NewDec(b)
	m := &KeyPush{ChannelID: d.Str(), SealedKey: d.Blob()}
	return m, d.Finish()
}

// ContentPush carries one content packet (serial-prefixed ciphertext from
// internal/keys) down a peering link / substream.
type ContentPush struct {
	ChannelID string
	Substream uint8
	Seq       uint64
	Packet    []byte
	// Frame is the exact input DecodeContentPush accepted (nil on a
	// message built locally). The decoder is canonical, so Frame is
	// byte-for-byte Encode() of the decoded fields and a relay can
	// forward it as-is. Encode ignores it.
	Frame []byte
}

// encodedLen is the exact Encode output size.
func (m *ContentPush) encodedLen() int {
	return 4 + len(m.ChannelID) + 1 + 8 + 4 + len(m.Packet)
}

// Encode serializes the message in one exact-size allocation — the
// buffer is retained by the network until delivery, so fan-out paths
// must not over-allocate or pool it.
func (m *ContentPush) Encode() []byte {
	e := newEnc(m.encodedLen())
	e.Str(m.ChannelID)
	e.u8(m.Substream)
	e.u64(m.Seq)
	e.Blob(m.Packet)
	return e.Bytes()
}

// ContentPushHeaderLen is the encoded size of everything before the
// packet bytes in a ContentPush.
func ContentPushHeaderLen(channelID string) int {
	return 4 + len(channelID) + 1 + 8 + 4
}

// AppendContentPushHeader appends the ContentPush framing up to the
// packet bytes — the symmetric twin of AppendKeyPushHeader for the
// content fan-out path. The caller must append exactly packetLen packet
// bytes next (typically by sealing directly into the same buffer),
// producing a valid DecodeContentPush input with a single allocation
// per edge.
func AppendContentPushHeader(dst []byte, channelID string, substream uint8, seq uint64, packetLen int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(channelID)))
	dst = append(dst, channelID...)
	dst = append(dst, substream)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	return binary.BigEndian.AppendUint32(dst, uint32(packetLen))
}

// DecodeContentPush parses a ContentPush without copying: Packet and
// Frame are views into b, like every decoded byte field (see Dec.Blob).
// The decode is canonical — every variable field is length-prefixed and
// Finish rejects trailing bytes — so an accepted b is exactly Encode() of
// the result.
func DecodeContentPush(b []byte) (ContentPush, error) {
	return DecodeContentPushOn(b, "")
}

// DecodeContentPushOn is DecodeContentPush for a receiver carrying
// channelID: a frame on that channel shares the channelID string instead
// of copying it out of b, so a relay hop decodes without allocating.
func DecodeContentPushOn(b []byte, channelID string) (ContentPush, error) {
	d := NewDec(b)
	m := ContentPush{ChannelID: d.strAs(channelID), Substream: d.u8(), Seq: d.u64(), Packet: d.Blob(), Frame: b[:len(b):len(b)]}
	return m, d.Finish()
}

// RenewalPresent hands a renewed Channel Ticket to existing peers so the
// peering relationship survives ticket expiry (§IV-D).
type RenewalPresent struct {
	ChannelTicket []byte
}

// Encode serializes the message.
func (m *RenewalPresent) Encode() []byte {
	e := newEnc(blobLen(m.ChannelTicket))
	e.Blob(m.ChannelTicket)
	return e.Bytes()
}

// DecodeRenewalPresent parses a RenewalPresent.
func DecodeRenewalPresent(b []byte) (*RenewalPresent, error) {
	d := NewDec(b)
	m := &RenewalPresent{ChannelTicket: d.Blob()}
	return m, d.Finish()
}

// LeaveNotice tells peers the sender is departing the channel overlay.
type LeaveNotice struct {
	ChannelID string
}

// Encode serializes the message.
func (m *LeaveNotice) Encode() []byte {
	e := newEnc(strLen(m.ChannelID))
	e.Str(m.ChannelID)
	return e.Bytes()
}

// DecodeLeaveNotice parses a LeaveNotice.
func DecodeLeaveNotice(b []byte) (*LeaveNotice, error) {
	d := NewDec(b)
	m := &LeaveNotice{ChannelID: d.Str()}
	return m, d.Finish()
}

// ChanListReq fetches the channel list from the Channel Policy Manager,
// listing the attribute names whose utimes were newer than the client's
// cached copy (§IV-B).
type ChanListReq struct {
	UserTicket []byte
	StaleNames []string
}

// Encode serializes the message.
func (m *ChanListReq) Encode() []byte {
	e := newEnc(blobLen(m.UserTicket) + strSliceLen(m.StaleNames))
	e.Blob(m.UserTicket)
	e.strSlice(m.StaleNames)
	return e.Bytes()
}

// DecodeChanListReq parses a ChanListReq.
func DecodeChanListReq(b []byte) (*ChanListReq, error) {
	d := NewDec(b)
	m := &ChanListReq{UserTicket: d.Blob(), StaleNames: d.strSlice()}
	return m, d.Finish()
}

// ChanListResp returns the (possibly filtered) Channel List, encoded by
// internal/policy.AppendChannels.
type ChanListResp struct {
	Channels []byte
}

// Encode serializes the message.
func (m *ChanListResp) Encode() []byte {
	e := newEnc(blobLen(m.Channels))
	e.Blob(m.Channels)
	return e.Bytes()
}

// DecodeChanListResp parses a ChanListResp.
func DecodeChanListResp(b []byte) (*ChanListResp, error) {
	d := NewDec(b)
	m := &ChanListResp{Channels: d.Blob()}
	return m, d.Finish()
}

// RedirectReq asks the Redirection Manager which User Manager serves the
// user's Authentication Domain (§V).
type RedirectReq struct {
	Email string
}

// Encode serializes the message.
func (m *RedirectReq) Encode() []byte {
	e := newEnc(strLen(m.Email))
	e.Str(m.Email)
	return e.Bytes()
}

// DecodeRedirectReq parses a RedirectReq.
func DecodeRedirectReq(b []byte) (*RedirectReq, error) {
	d := NewDec(b)
	m := &RedirectReq{Email: d.Str()}
	return m, d.Finish()
}

// RedirectResp returns the assigned User Manager and, for extensibility,
// the Channel Policy Manager coordinates (§V).
type RedirectResp struct {
	UserMgr      string
	UserMgrKey   []byte
	PolicyMgr    string
	PolicyMgrKey []byte
}

// Encode serializes the message.
func (m *RedirectResp) Encode() []byte {
	e := newEnc(strLen(m.UserMgr) + blobLen(m.UserMgrKey) + strLen(m.PolicyMgr) +
		blobLen(m.PolicyMgrKey))
	e.Str(m.UserMgr)
	e.Blob(m.UserMgrKey)
	e.Str(m.PolicyMgr)
	e.Blob(m.PolicyMgrKey)
	return e.Bytes()
}

// DecodeRedirectResp parses a RedirectResp.
func DecodeRedirectResp(b []byte) (*RedirectResp, error) {
	d := NewDec(b)
	m := &RedirectResp{
		UserMgr: d.Str(), UserMgrKey: d.Blob(),
		PolicyMgr: d.Str(), PolicyMgrKey: d.Blob(),
	}
	return m, d.Finish()
}

// Feed is the envelope for Channel Policy Manager pushes. Pushes are
// one-way messages that can be reordered in flight; receivers keep only
// the highest Version seen so a stale list never overwrites a newer one.
type Feed struct {
	Version uint64
	Body    []byte
}

// Encode serializes the message.
func (m *Feed) Encode() []byte {
	e := newEnc(8 + blobLen(m.Body))
	e.u64(m.Version)
	e.Blob(m.Body)
	return e.Bytes()
}

// DecodeFeed parses a Feed.
func DecodeFeed(b []byte) (*Feed, error) {
	d := NewDec(b)
	m := &Feed{Version: d.u64(), Body: d.Blob()}
	return m, d.Finish()
}

// LicenseReq is the baseline traditional-DRM license request: a per-file
// playback license acquired right before playback (§I).
type LicenseReq struct {
	UserIN uint64
	FileID string
}

// Encode serializes the message.
func (m *LicenseReq) Encode() []byte {
	e := newEnc(8 + strLen(m.FileID))
	e.u64(m.UserIN)
	e.Str(m.FileID)
	return e.Bytes()
}

// DecodeLicenseReq parses a LicenseReq.
func DecodeLicenseReq(b []byte) (*LicenseReq, error) {
	d := NewDec(b)
	m := &LicenseReq{UserIN: d.u64(), FileID: d.Str()}
	return m, d.Finish()
}

// LicenseResp returns the baseline playback license (the content key).
type LicenseResp struct {
	Granted bool
	Key     []byte
}

// Encode serializes the message.
func (m *LicenseResp) Encode() []byte {
	e := newEnc(1 + blobLen(m.Key))
	e.Bool(m.Granted)
	e.Blob(m.Key)
	return e.Bytes()
}

// DecodeLicenseResp parses a LicenseResp.
func DecodeLicenseResp(b []byte) (*LicenseResp, error) {
	d := NewDec(b)
	m := &LicenseResp{Granted: d.Bool(), Key: d.Blob()}
	return m, d.Finish()
}
