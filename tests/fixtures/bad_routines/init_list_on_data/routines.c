int:16 jobs; int:16 a[2] = {5, 6};

void Begin() {
  jobs = a[1] + 7;
  SetTrue(BUSY);
}

void Finish() {
  SetFalse(BUSY);
}
