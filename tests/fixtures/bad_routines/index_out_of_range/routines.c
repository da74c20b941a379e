int:16 jobs; int:8 a[4];

void Begin() {
  a[9] = 1;
  SetTrue(BUSY);
}

void Finish() {
  SetFalse(BUSY);
}
