package repro.core

import java.nio.file.Files
import java.nio.file.attribute.PosixFilePermission
import org.apache.hadoop.fs.{LocalFileSystem, Path, RawLocalFileSystem}
import org.apache.hadoop.fs.permission.FsPermission

/** The checksummed `file:` FileSystem, setting permissions in the JVM.
  * Without Hadoop's native library, `RawLocalFileSystem.setPermission`
  * forks a `chmod` process for every file, checksum file and directory a
  * write creates; here a mode of only rwx bits is set through `java.nio`.
  * Select it with `spark.hadoop.fs.file.impl`.
  */
class LocalFs extends LocalFileSystem(new LocalFs.Raw)

object LocalFs {
  private val bits = PosixFilePermission.values // owner rwx, group rwx, others rwx

  final class Raw extends RawLocalFileSystem {
    override def setPermission(p: Path, permission: FsPermission): Unit = {
      val mode = permission.toShort.toInt
      if ((mode & ~0x1ff) != 0) super.setPermission(p, permission)
      else {
        val set = java.util.EnumSet.noneOf(classOf[PosixFilePermission])
        for (i <- bits.indices if (mode & (0x100 >> i)) != 0) set.add(bits(i))
        Files.setPosixFilePermissions(pathToFile(p).toPath, set)
      }
    }
  }
}
