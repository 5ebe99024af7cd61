//go:build !linux

package trace

// statID reports no identity: the memo reads Linux's stat fields
// (inode and ctime in syscall.Stat_t) and is tested only there, so
// elsewhere DigestMemo always hashes.
func statID(string) (fileID, bool) { return fileID{}, false }
